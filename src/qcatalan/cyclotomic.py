"""Cyclotomic polynomials and exact arithmetic in Q(zeta_m) = Q[x]/Phi_m(x).

Phi_n is computed by the Moebius product of the integer factors
(1 - q^d)^mu(n/d) over d | n, with ring's exact 1 - q^d kernels.  The two
memos here, Phi_n and norm-product field inverses, are bounded
functools.lru_caches; the powers Phi_n^e are not memoised, since only a
failure witness reduces mod Phi_n^e.  Each memo holds a pure function, so
two threads that miss on the same key store equal values.

Q(zeta_m) has one arithmetic class and one accumulator.  A CycloElem is
a residue mod Phi_m: an integer coefficient vector of length phi(m) over
a single positive denominator in lowest terms, so equality is structural;
every product, inverse and power of field values is CycloElem arithmetic,
and CycloElem.inv is the one inverse.  A GroupAlgebraElem is a lazy value
in the group algebra Q[x]/(x^m - 1), which maps onto Q(zeta_m) =
Q[x]/Phi_m: it adds and convolves vectors, and is reduced mod Phi_m only
when it is read.  GroupAlgebraElem.value is the one way from a
group-algebra value into a CycloElem.  _field_sum adds a list of terms
c * q^e / (1 - t * q^s) at q = x^j into one such value in one pass over
one common denominator, writing each term by a closed form (the
monomial, the sawtooth or the geometric series) with no stored inverse
and no memo.  It is the only code that sums a term list, for the rootid
suites, the reduction chain, the character sums and the values that
compiled qdsl expressions build in cyclo mode.  With
GroupAlgebraElem.conjugate, which maps a sum at zeta_m onto the sum at
zeta_m^j, it is the only code that applies j: x -> x^j (gcd(j, m) = 1) is
an automorphism of Q(zeta_m), so a value is zero at zeta_m^j exactly when
it is at zeta_m.
Zero tests reduce nothing (phi_power_divides), and _field_witness is the
one field verdict.  A product of factors (1 - q^s)^(+-1), such as a
Gaussian binomial, is evaluated at q = zeta_n + eps by _eps_product, as
the leading term eps^v num / den with num and den plain int vectors of
Z[x]/(x^n - 1), and _eps_congruent zero-tests each eps coefficient of its
cross-multiplied difference with a sum of monomials, by
phi_power_divides.  reduce_mod_phi_power is the one reduction mod Phi: it
renders both kinds of failure witness, a remainder mod Phi_n^e and a
reduced CycloElem (GroupAlgebraElem.value, root powers, products and the
norm-product CycloElem.inv all call it).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, compress
from math import comb, gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .ring import (
    Coeff,
    Poly,
    _div_one_minus,
    _mul_one_minus,
    as_coeff,
    power,
)

# ---------------------------------------------------------------------------
# elementary number theory helpers


def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> [euler_phi(n) for n in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    return prod(p ** (a - 1) * (p - 1) for p, a in factorize(n))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation as (prime, exponent) pairs, ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


# ---------------------------------------------------------------------------
# cyclotomic polynomials

@lru_cache(maxsize=256)
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Built by the Moebius product Phi_n = +-prod_{d | n} (1 - q^d)^mu(n/d):
    the factors with mu = +1 multiplied in, then the ones with mu = -1
    divided out exactly.  mu(n/d) is nonzero only for n/d a product of
    distinct primes of n, and the sign is -1 only for n = 1.

    >>> cyclotomic_poly(3)
    Poly('1 + q + q^2')
    >>> cyclotomic_poly(6)
    Poly('1 - q + q^2')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    primes = [p for p, _ in factorize(n)]
    out, below = [1], []
    for r in range(len(primes) + 1):
        for ps in combinations(primes, r):
            d = n // prod(ps)  # mu(n/d) = (-1)^r
            if r % 2:
                below.append(d)
            else:
                out = _mul_one_minus(out, d)
    for d in below:
        out = _div_one_minus(out, d)
    return Poly._trusted(out if n > 1 else [-c for c in out])


def reduce_mod_phi_power(p: Poly, n: int, e: int = 1) -> Poly:
    """Remainder of p modulo Phi_n(q)^e.

    Large inputs are first folded modulo (q^n - 1)^e, which Phi_n^e
    divides, so only a small dense division remains.  It is the only
    reduction mod Phi in the library: Phi_n^e witnesses and every
    CycloElem in Q(zeta_m) (e = 1) come from it.  For instance
    q^9 = 1 + 3*(q^3 - 1) mod (q^3 - 1)^2, of degree below that of Phi_3^2:

    >>> reduce_mod_phi_power(Poly.monomial(1, 9), 3, 2)
    Poly('-2 + 3*q^3')
    """
    if n < 1:
        raise ValueError("modulus index must be a positive integer")
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    if len(p.coeffs) > n * e:
        p = Poly(fold_mod_cyclic(p.coeffs, n, e))
    phi = cyclotomic_poly(n)
    return p.divmod(phi if e == 1 else phi**e)[1]


def phi_power_divides(coeffs: Sequence[Coeff], n: int, e: int = 1) -> bool:
    """Whether Phi_n(q)^e divides f = sum c_i q^i (c = coeffs), with no
    division.  By the CRT, Q[x]/(x^n - 1) is the product of the Q(zeta_d),
    d | n, and g_n = prod_{p | n prime} (1 - x^(n/p)) is zero in each but
    Q(zeta_n), where it is a unit: Phi_n | f iff g_n (f mod x^n - 1) = 0.
    Phi_n is separable, so Phi_n^e | f iff Phi_n divides f, ..., f^(e-1).

    Each test is a few whole-list passes.  f mod x^n - 1 of a degree below
    2n (every stored chain residue, and every difference _residue_witness
    forms) is the low row c_0..c_(n-1) plus the high row c_n..c_(2n-1),
    one vector add; a longer f sums each column c_r, c_(r+n), ... .  Every
    factor 1 - x^s of g_n but the last is a vector subtraction of the
    rotation by s, and the last is a comparison: v (1 - x^s) = 0 iff v
    equals its rotation by s.  For n = 1, g_1 = 1 and the test is v = 0.

    >>> f = (Poly.monomial(1, 9) - 1).coeffs  # (q^3 - 1) Phi_9
    >>> phi_power_divides(f, 3), phi_power_divides(f, 3, 2)
    (True, False)
    >>> g = [1] * 8  # (1 + q^4) Phi_4 Phi_2, of degree below 2 * 4
    >>> phi_power_divides(g, 4), phi_power_divides(g, 4, 2)
    (True, False)
    """
    if n < 1:
        raise ValueError("modulus index must be a positive integer")
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    *shifts, last = [n // p for p, _ in factorize(n)] or [0]
    for i in range(e):
        if i:
            coeffs = list(map(mul, coeffs[1:], range(1, len(coeffs))))  # f'
        k = len(coeffs)
        if k <= n:
            v = [*coeffs, *[0] * (n - k)]
        elif k <= 2 * n:  # the low row plus the high row
            v = list(map(add, coeffs[:n], [*coeffs[n:], *[0] * (2 * n - k)]))
        else:
            v = [sum(coeffs[r::n]) for r in range(n)]  # f mod x^n - 1
        for s in shifts:
            v = list(map(sub, v, v[-s:] + v[:-s]))  # times 1 - x^s
        if (v != v[-last:] + v[:-last]) if last else any(v):
            return False
    return True


def fold_mod_cyclic(coeffs: Sequence[Coeff], n: int, e: int) -> list[Coeff]:
    """The remainder of sum_i c_i q^i (c = coeffs) modulo (q^n - 1)^e, e >= 1,
    as n*e coefficients.  With an exponent written a*n + r, 0 <= r < n,

        q^(a*n + r) = q^r (1 + (q^n - 1))^a = q^r sum_j C(a, j) (q^n - 1)^j,

    and the terms with j >= e vanish.  So the input is congruent to
    sum_{j<e} (q^n - 1)^j M_j(q), with the binomial moments
    M_j[r] = sum_a C(a, j) c_(a*n + r).  Expanded, that has degree below
    n*e, the degree of (q^n - 1)^e, so it is the remainder.  For e = 1 the
    fold sums the coefficients in each residue class of exponents mod n.

    The moments are running sums, with no binomial weights and no products:
    take a column c_(a*n + r) from the top a down; after j + 1 suffix sums
    its entry at a is sum_b C(b - a + j, j) c_(b*n + r), which is M_j[r] at
    a = j, and the entries below a = j are not read again.  For e = 2 that
    is one accumulate and one sum per column.  The expansion is Horner's
    rule in q^n - 1, one subtraction of vectors per moment.  Any exact
    coefficients work: negative ints and Fractions alike.
    """
    moments: list[list[Coeff]] = [[] for _ in range(e)]
    last = len(coeffs) - 1
    for r in range(n):
        col = coeffs[last - (last - r) % n :: -n] if r <= last else []  # top a first
        for m in moments[:-1]:
            col = list(accumulate(col))
            m.append(col.pop() if col else 0)
        moments[-1].append(sum(col))
    # expand by Horner's rule in q^n - 1: out <- (q^n - 1) out + M_j
    out = moments.pop()
    for m in reversed(moments):
        out = list(map(sub, m + out, out + [0] * n))
    return out


# ---------------------------------------------------------------------------
# products of factors 1 - q^s at q = zeta_n + eps
#
# q -> x + eps maps Z[q] into Z[x]/(x^n - 1)[[eps]], and that ring onto
# Q(zeta_n)[[eps]], where f(zeta_n + eps) = sum_i f^[i](zeta_n) eps^i with
# the Taylor coefficients f^[i] = f^(i)/i!.  Phi_n is separable, so Phi_n^e
# divides f exactly when f^[i](zeta_n) = 0 for every i < e (the derivative
# test for repeated roots): when each of the first e eps-coefficients of
# f(x + eps) passes phi_power_divides(v, n, 1).


def _eps_product(
    n: int, up: Sequence[range], down: Sequence[range], shift: int = 0
) -> tuple[int, list[int], list[int]]:
    """The leading term of F = q^shift prod_{s in up} (1 - q^s) /
    prod_{s in down} (1 - q^s) at q = x + eps, as (v, num, den) with
    F = eps^v (num / den + O(eps)): num and den are length-n int vectors of
    Z[x]/(x^n - 1), both nonzero at x = zeta_n, so den is a unit there.
    Nothing is divided.  up and down are runs of positive integers (ranges
    of step 1); shift >= 0.

    A factor with n not dividing s is 1 - x^(s mod n) + O(eps), nonzero at
    zeta_n.  One with n | s has 1 - x^s = 0 in the ring, so it is
    eps (-s x^-1 + O(eps)): it adds 1 to v (up) or takes 1 from it (down).
    So the vanishing factors leave (-x^-1)^v times the rational
    prod s / prod s' (an extra one in up makes F = O(eps)), and the others
    cancel between up and down by residue: each run holds len // n of every
    residue and one more of len % n consecutive ones, counted in a
    difference array, and only the factors left over are multiplied in, one
    rotation each; for one Gaussian binomial at most n - 1 are left.
    """
    v = 0
    diff, scalars = [0] * (n + 1), [1, 1]
    for side, runs in enumerate((up, down)):
        sign = 1 - 2 * side
        for run in runs:
            start, stop = run.start, run.stop
            first = -(-start // n) * n  # the least multiple of n from start
            if first < stop:
                vanishing = range(first, stop, n)
                v += sign * len(vanishing)
                scalars[side] *= prod(vanishing)
            k, r = divmod(stop - start, n)
            lo = start % n
            hi = lo + r
            diff[0] += sign * k
            diff[lo] += sign
            if hi > n:  # the residues lo .. n - 1 and 0 .. hi - n - 1
                diff[0] += sign
                hi -= n
            diff[hi] -= sign
    num, den = [0] * n, [0] * n
    num[(shift - v) % n] = -scalars[0] if v % 2 else scalars[0]
    den[0] = scalars[1]
    counts = list(accumulate(diff[:n]))
    for r in compress(range(1, n), counts[1:]):
        for _ in range(counts[r]):
            num = list(map(sub, num, num[-r:] + num[:-r]))  # times 1 - x^r
        for _ in range(-counts[r]):
            den = list(map(sub, den, den[-r:] + den[:-r]))
    return v, num, den


def _eps_congruent(
    n: int,
    e: int,
    up: Sequence[range],
    down: Sequence[range],
    rhs: Sequence[tuple[int, int]],
    shift: int = 0,
) -> bool:
    """Whether F = R (mod Phi_n^e) for the product F of _eps_product and
    R = sum c q^t over the monomials (c, t) of rhs (int c, t >= 0).  F must
    vanish to order v >= e - 1 at zeta_n, so that the leading term
    eps^v num / den of F decides: with R = sum_i R_i eps^i at q = x + eps,
    R_i = sum c C(t, i) x^(t - i), the eps^i coefficient of the
    cross-multiplied eps^v num - den R vanishes at zeta_n, once those below
    it do (so R_0 .. R_(i-1) vanish there), exactly when
    [i = v] num - den R_i does.  Each is tested by phi_power_divides(., n, 1).
    """
    v, num, den = _eps_product(n, up, down, shift)
    if v < e - 1:
        raise ValueError(f"the product vanishes to order {v} < {e - 1} at zeta_n")
    for i in range(e):
        acc = num if i == v else [0] * n
        for c, t in rhs:
            if t >= i:  # minus den times c C(t, i) x^(t-i)
                c *= comb(t, i)
                t = (t - i) % n
                acc = list(map(sub, acc, map(c.__mul__, den[-t:] + den[:-t])))
        if any(acc) and not phi_power_divides(acc, n, 1):
            return False
    return True


# ---------------------------------------------------------------------------
# extended gcd over Q[x]


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid over Q[x]: returns (g, u, v) with u*a + v*b = g.

    g is monic unless both inputs are zero.  No suite calls it: the tests
    keep it as the oracle for CycloElem.inv, which uses the field norm, and
    for the reduction chain's inverses modulo Phi_n^2.
    """
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0.is_zero():
        lead = r0.leading()
        if lead != 1:
            inv = as_coeff(Fraction(1) / Fraction(lead))
            r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


# ---------------------------------------------------------------------------
# field elements


def _check_modulus(a, b) -> None:
    """Raise ValueError unless the two field values share their modulus m."""
    if a.m != b.m:
        raise ValueError(f"modulus mismatch: {a.m} vs {b.m}")


class CycloElem:
    """An element of Q(zeta_m), stored as its residue mod Phi_m.

    The residue is an integer vector over a single positive denominator in
    lowest terms, so equality is structural.
    """

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, num: Sequence[int], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        num = list(num)
        if den < 0:
            den = -den
            num = [-c for c in num]
        while num and num[-1] == 0:
            num.pop()
        g = gcd(den, *num)  # den for num = [], so zero is 0/1
        if g > 1:
            num = [c // g for c in num]
            den //= g
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, m: int, c: Coeff) -> "CycloElem":
        if m < 1:
            raise ValueError("field order must be a positive integer")
        c = Fraction(c)
        return cls(m, [c.numerator], c.denominator)

    @classmethod
    def zero(cls, m: int) -> "CycloElem":
        return cls(m, ())

    @classmethod
    def one(cls, m: int) -> "CycloElem":
        return cls(m, (1,))

    @classmethod
    def root_power(cls, m: int, t: int) -> "CycloElem":
        """The class of x^(t mod m), i.e. zeta_m^t."""
        if m < 1:
            raise ValueError("root order must be a positive integer")
        return CycloElem(m, reduce_mod_phi_power(Poly.monomial(1, t % m), m).coeffs)

    # -- views ---------------------------------------------------------------

    @property
    def repr_poly(self) -> Poly:
        """The reduced residue as a Poly with rational coefficients."""
        if self.den == 1:
            return Poly(self.num)
        return Poly(tuple(Fraction(c, self.den) for c in self.num))

    def is_zero(self) -> bool:
        return not self.num

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            _check_modulus(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(self.m, other)
        return NotImplemented

    def __add__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        g = gcd(da, db)
        lcm = da // g * db
        fa, fb = lcm // da, lcm // db
        a, b = self.num, o.num
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = [c * fa for c in a]
        for i, c in enumerate(b):
            out[i] += c * fb
        return CycloElem(self.m, out, lcm)

    __radd__ = __add__

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.m, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CycloElem":
        return (-self) + other

    def __mul__(self, other) -> "CycloElem":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycloElem(
                self.m, [v * c.numerator for v in self.num], self.den * c.denominator
            )
        if not isinstance(other, CycloElem):
            return NotImplemented
        _check_modulus(self, other)
        if not self.num or not other.num:
            return CycloElem.zero(self.m)
        out = reduce_mod_phi_power(Poly(self.num) * Poly(other.num), self.m)
        return CycloElem(self.m, out.coeffs, self.den * other.den)

    __rmul__ = __mul__

    @lru_cache(maxsize=256)
    def inv(self) -> "CycloElem":
        """Multiplicative inverse by the field norm.

        For a unit j mod m let sigma_j be the automorphism x -> x^j.  Then
        N(a) = prod_j sigma_j(a) is a nonzero rational for a != 0, and

            a^-1 = prod_{j != 1} sigma_j(a) / N(a).

        Each conjugate is GroupAlgebraElem.conjugate of the integer
        numerator, and each partial product is reduced by
        reduce_mod_phi_power.

        Results are memoised process-wide for the 256 most recently inverted
        elements (keyed by the element, whose form is canonical), so an
        evaluator that divides by the same field element again and again,
        such as a qdsl sweep dividing by a value of three or more terms,
        inverts it once.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        m, num = self.m, self.num
        padded = GroupAlgebraElem(m, list(num) + [0] * (m - len(num)))
        cofactor = Poly.one()
        for j in range(2, m):
            if gcd(j, m) == 1:
                conj = padded.conjugate(j).vec
                cofactor = reduce_mod_phi_power(cofactor * Poly(conj), m)
        norm = reduce_mod_phi_power(cofactor * Poly(num), m)
        if norm.degree != 0:
            raise ArithmeticError("norm is not a nonzero rational")
        return CycloElem(m, [c * self.den for c in cofactor.coeffs], norm[0])

    def __truediv__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, e: int) -> "CycloElem":
        if e < 0:
            return self.inv() ** (-e)
        return power(CycloElem.one(self.m), self, e)

    # -- comparisons, rendering, embedding -----------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloElem):
            return (self.m, self.num, self.den) == (other.m, other.num, other.den)
        if isinstance(other, (int, Fraction)):
            return self == CycloElem.from_rational(self.m, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.num, self.den))

    def render(self) -> str:
        return f"{self.repr_poly.render(var='x')} (mod Phi_{self.m})"

    def __repr__(self) -> str:
        return f"CycloElem({self.render()!r})"

    def to_complex(self) -> complex:
        """Numerical value under the embedding x -> exp(2*pi*i/m)."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.m)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c
        return acc / self.den


# ---------------------------------------------------------------------------
# the group algebra Q[x]/(x^m - 1), a lazy form of Q(zeta_m)


class CycloField:
    """One Q(zeta_m).  No library code builds one, since lazy values carry
    only m: it is kept for the public API and for the benchmark tracer,
    which wraps its methods by name.  element() reads a group-algebra
    vector as a CycloElem by GroupAlgebraElem.value; inv_one_minus /
    inv_one_plus give group-algebra representatives (vector, denominator)
    of 1/(1 - x^s) and 1/(1 + x^s), each a one-term _field_sum.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("field order must be a positive integer")
        self.m = m

    def element(self, vec: Sequence[int], den: int = 1) -> CycloElem:
        """Reduce a group-algebra vector mod Phi_m into a field element."""
        return GroupAlgebraElem(self.m, list(vec), den).value()

    # -- inverses of 1 -+ x^s --------------------------------------------------

    def inv_one_minus(self, s: int) -> tuple[tuple[int, ...], int]:
        """Group-algebra representative of 1/(1 - x^s); s must not be 0 mod m."""
        acc = _field_sum(self.m, [(1, 0, s, 1)])
        return tuple(acc.vec), acc.den

    def inv_one_plus(self, s: int) -> tuple[tuple[int, ...], int]:
        """Group-algebra representative of 1/(1 + x^s)."""
        acc = _field_sum(self.m, [(1, 0, s, -1)])
        return tuple(acc.vec), acc.den


def _unit_binomial(m: int, s: int, t: int) -> tuple[int, int, int]:
    """(s, t, d) for 1 - t x^s with t = +-1 and s in [0, m), d the order of
    x^s: 1 + x^s with d even is rewritten as 1 - x^(s + m/2), since m is
    even and x^(m/2) = -1 in Q(zeta_m).  So 1 - t x^s is zero in Q(zeta_m)
    exactly when the result has t = 1 and d = 1, which raises
    ZeroDivisionError."""
    d = m // gcd(m, s)
    if t == -1 and d % 2 == 0:
        s = (s + m // 2) % m
        t, d = 1, m // gcd(m, s)
    if t == 1 and d == 1:
        raise ZeroDivisionError(f"1 - x^{s} is zero in Q(zeta_{m})")
    return s, t, d


class GroupAlgebraElem:
    """A lazy element of Q(zeta_m): an integer vector v of length m over one
    positive denominator, standing for (1/den) * sum v[i] x^i in the group
    algebra Q[x]/(x^m - 1).  It carries its modulus m; value() is the one
    crossing from a vector into a reduced CycloElem.

    It is the accumulator that _field_sum returns, not a second field: it
    has only what the callers of _field_sum need, and nothing is reduced
    mod Phi_m until value() is read.  Differences, scalar operands,
    inverses and powers are CycloElem arithmetic, or terms of a _field_sum.

    * ``+`` of two values is a vector sum over the lcm of the
      denominators, with no gcd taken, for charsum's S1 * T1 + S2 * T2 and
      rootid's failure render, which adds the target back;
    * ``*`` of two values is one cyclic convolution over the nonzero
      entries of both factors, for charsum's products;
    * an int or Fraction operand, or a difference, raises TypeError; two
      values of different m raise ValueError, as CycloElems do;
    * is_zero() counts the nonzero entries, answers zero or one term
      directly and tests anything else with phi_power_divides, with no
      reduction: (1 + x + x^2) is zero at m = 3;
    * conjugate(j) is sigma_j: x -> x^j for gcd(j, m) = 1, the one
      conjugation kernel: entry i moves to i*j mod m.  It is an automorphism
      of Q[x]/(x^m - 1) and of Q(zeta_m), and it maps _field_sum(m, T, 1)
      onto _field_sum(m, T, j) entry for entry, denominator and all.

    >>> one = GroupAlgebraElem.monomial(3, 1)
    >>> (one + GroupAlgebraElem.monomial(3, -1, 1)).value().inv()
    CycloElem('2/3 + 1/3*x (mod Phi_3)')
    """

    __slots__ = ("m", "vec", "den")

    def __init__(self, m: int, vec: list[int], den: int = 1):
        self.m = m
        self.vec = vec
        self.den = den

    @classmethod
    def monomial(cls, m: int, c: Coeff, e: int = 0) -> "GroupAlgebraElem":
        """c * x^e; c is an int or a Fraction."""
        vec = [0] * m
        vec[e % m] = c.numerator
        return cls(m, vec, c.denominator)

    def value(self) -> CycloElem:
        """The field element: the vector reduced mod Phi_m."""
        m = self.m
        return CycloElem(m, reduce_mod_phi_power(Poly(self.vec), m).coeffs, self.den)

    def _support(self) -> list[int]:
        """Indices of the nonzero entries."""
        return list(compress(range(len(self.vec)), self.vec))

    def is_zero(self) -> bool:
        """Whether the value is zero in Q(zeta_m), with no reduction."""
        vec = self.vec
        terms = len(vec) - vec.count(0)
        if terms <= 1:  # zero, or a unit c x^p
            return not terms
        return phi_power_divides(vec, self.m)

    def conjugate(self, j: int) -> "GroupAlgebraElem":
        """sigma_j(self): x -> x^j, for j coprime to m; the denominator is kept."""
        m, vec = self.m, self.vec
        k = pow(j, -1, m)  # entry i * j comes from entry i; ValueError unless coprime
        return GroupAlgebraElem(m, [vec[i * k % m] for i in range(m)], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        if not isinstance(other, GroupAlgebraElem):
            return NotImplemented
        _check_modulus(self, other)
        da, db = self.den, other.den
        if da == db:
            return GroupAlgebraElem(self.m, list(map(add, self.vec, other.vec)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        out = [a * fa + b * fb for a, b in zip(self.vec, other.vec)]
        return GroupAlgebraElem(self.m, out, da * fa)

    def __mul__(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        if not isinstance(other, GroupAlgebraElem):
            return NotImplemented
        _check_modulus(self, other)
        m = self.m
        a, b = self.vec, other.vec
        out = [0] * m
        sb = other._support()
        for i in self._support():
            ai = a[i]
            for j in sb:
                k = i + j
                out[k - m if k >= m else k] += ai * b[j]
        return GroupAlgebraElem(m, out, self.den * other.den)


# A term (c, e, s, t) is c * x^e / (1 - t * x^s), with c and t int or Fraction;
# t = 0 is the monomial c * x^e.  Term lists are written as plain tuples.
_Term = NamedTuple("_Term", [("c", Fraction), ("e", int), ("s", int), ("t", Fraction)])


def _field_sum(m: int, terms: Iterable[_Term], j: int = 1) -> GroupAlgebraElem:
    """The sum of the terms at q = x^j (c q^e / (1 - t q^s) is read as
    c x^(je) / (1 - t x^(js))) in the group algebra of Q(zeta_m), over one
    common denominator D.  A first pass sets D to the lcm of vden *
    c.denominator over the terms with c != 0, where vden is the denominator
    of 1/(1 - t x^(js)); a second adds (D / (vden * c.denominator)) *
    c.numerator * x^(je) / (1 - t x^(js)) into one integer vector.  With z
    = x^(js) of order d (so z^d = 1 already in Q[x]/(x^m - 1)), each term
    is written by one of three closed forms, O(d) per term:

    * t = 0: the monomial c x^(je);
    * t^d = 1 (t = 1, or t = -1 with d even, which _unit_binomial shifts
      by m/2 to t = 1 with its own d): the discrete sawtooth
      1/(1 - z) = -(1/d) sum_{u<d} u z^u, exact in Q(zeta_m) for d > 1,
      where z is a primitive d-th root of unity and sum_{u<d} z^u = 0;
    * any other rational t = p/q in lowest terms: the geometric series
      (1 - t z) sum_{u<d} (t z)^u = 1 - t^d, so
      1/(1 - t z) = sum_{u<d} p^u q^(d-u) z^u / (q^d - p^d).  Its entries
      share only the factor q, which is prime to q^d - p^d, so the form is
      in lowest terms; t = -1 with d odd is sum_{u<d} (-1)^u z^u / 2.

    A denominator 1 - t x^(js) that is zero in Q(zeta_m) (t = 1 with
    d = 1) raises ZeroDivisionError, even when c = 0.

    >>> _field_sum(3, [(1, 0, 1, 1)]).value()  # 1/(1 - x)
    CycloElem('2/3 + 1/3*x (mod Phi_3)')
    >>> _field_sum(3, [(1, 0, 1, 2)]).value()  # 1/(1 - 2x)
    CycloElem('3/7 + 2/7*x (mod Phi_3)')
    """
    writes = []
    den = 1
    for c, e, s, t in terms:
        s = s * j % m
        d = 1
        if t == 1 or t == -1:
            s, t, d = _unit_binomial(m, s, t)
        elif t:
            d = m // gcd(m, s)
        vden = d if t == 1 else t.denominator**d - t.numerator**d  # 1 for t = 0
        if c:
            cden = vden * c.denominator
            den = lcm(den, cden)  # positive; a negative cden signs the factor
            writes.append((t, s, d, cden, c.numerator, e * j))
    acc = [0] * m
    for t, s, d, cden, num, e in writes:
        factor = den // cden * num
        pos = e % m
        if not t:
            acc[pos] += factor
        elif t == 1:  # -factor * u at x^(e + su), u = 1 .. d - 1
            weight = 0
            for _ in range(1, d):
                pos = (pos + s) % m
                weight += factor
                acc[pos] -= weight
        else:  # factor * p^u q^(d-u) at x^(e + su), u = 0 .. d - 1
            p, q = t.numerator, t.denominator
            weight = factor * q**d
            for _ in range(d):
                acc[pos] += weight
                pos = (pos + s) % m
                weight = weight // q * p
    return GroupAlgebraElem(m, acc, den)


def _field_witness(m: int, terms: Iterable[_Term], j: int = 1) -> Optional[str]:
    """None if the terms sum to zero at q = zeta_m^j, else the rendered sum."""
    acc = _field_sum(m, terms, j)
    return None if acc.is_zero() else acc.value().render()
