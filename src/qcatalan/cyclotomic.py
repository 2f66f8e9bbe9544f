"""Cyclotomic polynomials and exact arithmetic in Q(zeta_m) = Q[x]/Phi_m(x).

Phi_n is computed by recursive exact division, Phi_n = (q^n - 1) / prod of
Phi_d over proper divisors d | n, and memoised.  The memo is an idempotent
map: concurrent callers computing the same n store identical values, so a
plain dict under the GIL is safe.  The powers Phi_n^e that reductions
divide by are kept in a bounded LRU cache.

Field elements are residues mod Phi_m, held as an integer coefficient
vector of length phi(m) over a single positive denominator in lowest
terms, which keeps the hot arithmetic in machine integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul
from typing import Iterable, Sequence

from .ring import Coeff, Poly, as_coeff

# ---------------------------------------------------------------------------
# elementary number theory helpers


def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> [euler_phi(n) for n in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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

_PHI_CACHE: dict[int, Poly] = {}


def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    >>> cyclotomic_poly(3)
    Poly('1 + q + q^2')
    >>> cyclotomic_poly(6)
    Poly('1 - q + q^2')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    cached = _PHI_CACHE.get(n)
    if cached is not None:
        return cached
    p = Poly((-1,) + (0,) * (n - 1) + (1,))  # q^n - 1
    for d in divisors(n):
        if d < n:
            p = p.exact_div(cyclotomic_poly(d))
    _PHI_CACHE[n] = p
    return p


@lru_cache(maxsize=256)
def _phi_power(n: int, e: int) -> Poly:
    return cyclotomic_poly(n) ** e


def reduce_mod_phi_power(p: Poly, n: int, e: int = 1) -> Poly:
    """Remainder of p modulo Phi_n(q)^e.

    Large inputs are first folded modulo (q^n - 1)^e, which Phi_n^e
    divides, so only a small dense division remains.  The fold is one
    formula for every e: writing an exponent as a*n + r with 0 <= r < n,

        q^(a*n + r) = q^r * (1 + (q^n - 1))^a
                    = q^r * sum_j C(a, j) * (q^n - 1)^j,

    and the terms with j >= e vanish modulo (q^n - 1)^e.  So
    sum_i c_i q^i is congruent to sum_{j<e} (q^n - 1)^j * M_j(q), where the
    binomial moment M_j(q) = sum_{r<n} M_j[r] q^r has

        M_j[r] = sum_a C(a, j) * c_(a*n + r).

    Expanding (q^n - 1)^j gives a polynomial of degree < n*e, the degree of
    (q^n - 1)^e, that is congruent to p; it is therefore exactly the
    remainder of p modulo (q^n - 1)^e.  For e = 1 the fold sums the
    coefficients in each residue class of exponents mod n.

    For instance q^9 = (1 + (q^3 - 1))^3 = 1 + 3*(q^3 - 1) mod (q^3 - 1)^2,
    which already has degree below that of Phi_3^2:

    >>> reduce_mod_phi_power(Poly.monomial(1, 9), 3, 2)
    Poly('-2 + 3*q^3')
    """
    if n < 1:
        raise ValueError("modulus index must be a positive integer")
    if e < 1:
        raise ValueError("exponent must be a positive integer")
    coeffs = p.coeffs
    if len(coeffs) > n * e:
        height = -(-len(coeffs) // n)  # number of a values
        columns = [coeffs[r::n] for r in range(n)]
        moments = [[sum(col) for col in columns]]  # C(a, 0) = 1
        for j in range(1, e):
            weights = [comb(a, j) for a in range(height)]
            moments.append([sum(map(mul, weights, col)) for col in columns])
        folded = []
        for i in range(e):
            # the coefficient of q^(i*n) in (q^n - 1)^j is (-1)^(j-i) C(j, i)
            signs = [(-1) ** (j - i) * comb(j, i) for j in range(i, e)]
            folded += [sum(map(mul, signs, m)) for m in zip(*moments[i:])]
        p = Poly(folded)
    return p.divmod(_phi_power(n, e))[1]


# ---------------------------------------------------------------------------
# extended gcd over Q[x]


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid over Q[x]: returns (g, u, v) with u*a + v*b = g.

    g is monic unless both inputs are zero.  Used for inverses modulo
    Phi_n^e, which is not a field; CycloElem.inv uses the field norm.
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


def _reduce_int_vec(vec: list[int], phi: Sequence[int]) -> list[int]:
    """Reduce an integer coefficient list modulo a monic integer polynomial."""
    deg = len(phi) - 1
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for j in range(deg):
                pj = phi[j]
                if pj:
                    vec[base + j] -= c * pj
    del vec[deg:]
    return vec


def _mul_int_vec(a: Sequence[int], b: Sequence[int], phi: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists modulo a monic polynomial."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _reduce_int_vec(out, phi)


def _gcd_list(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


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
        g = _gcd_list(num)
        if g > 1:
            g = gcd(g, den)
            if g > 1:
                num = [c // g for c in num]
                den //= g
        if not num:
            den = 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, m: int, p: Poly) -> "CycloElem":
        coeffs = [Fraction(c) for c in p.coeffs]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        vec = [int(c * den) for c in coeffs]
        phi = _phi_int_coeffs(m)
        _reduce_int_vec(vec, phi)
        return cls(m, vec, den)

    @classmethod
    def from_rational(cls, m: int, c: Coeff) -> "CycloElem":
        c = Fraction(c)
        if euler_phi(m) == 0:
            raise ValueError("bad modulus")
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
        t %= m
        vec = [0] * t + [1]
        _reduce_int_vec(vec, _phi_int_coeffs(m))
        return cls(m, vec)

    # -- views ---------------------------------------------------------------

    @property
    def repr_poly(self) -> Poly:
        """The reduced residue as a Poly with rational coefficients."""
        if self.den == 1:
            return Poly(self.num)
        return Poly(tuple(Fraction(c, self.den) for c in self.num))

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0] if self.num else 0, self.den)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "CycloElem") -> None:
        if self.m != other.m:
            raise ValueError(f"modulus mismatch: {self.m} vs {other.m}")

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            self._check(other)
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
        self._check(other)
        if not self.num or not other.num:
            return CycloElem.zero(self.m)
        out = _mul_int_vec(self.num, other.num, _phi_int_coeffs(self.m))
        return CycloElem(self.m, out, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloElem":
        """Multiplicative inverse by the field norm.

        For a unit j mod m let sigma_j be the automorphism x -> x^j.  Then
        N(a) = prod_j sigma_j(a) is a nonzero rational for a != 0, and

            a^-1 = prod_{j != 1} sigma_j(a) / N(a).

        Each conjugate is the index map x^i -> x^(i*j mod m) on the integer
        numerator, so the whole product stays in integer lists.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        m, num = self.m, self.num
        phi = _phi_int_coeffs(m)
        cofactor: list[int] = [1]
        for j in range(2, m):
            if gcd(j, m) == 1:
                conj = [0] * m
                for i, c in enumerate(num):
                    conj[i * j % m] += c
                cofactor = _mul_int_vec(cofactor, _reduce_int_vec(conj, phi), phi)
        norm = _mul_int_vec(cofactor, num, phi)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError("norm is not a nonzero rational")
        return CycloElem(m, [c * self.den for c in cofactor], norm[0])

    def __truediv__(self, other) -> "CycloElem":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "CycloElem":
        return self.inv() * other

    def __pow__(self, e: int) -> "CycloElem":
        if e < 0:
            return self.inv() ** (-e)
        result = CycloElem.one(self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

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


_PHI_INT_CACHE: dict[int, tuple[int, ...]] = {}


def _phi_int_coeffs(m: int) -> tuple[int, ...]:
    cached = _PHI_INT_CACHE.get(m)
    if cached is None:
        cached = tuple(int(c) for c in cyclotomic_poly(m).coeffs)
        _PHI_INT_CACHE[m] = cached
    return cached


# ---------------------------------------------------------------------------
# working context for a fixed field


class CycloField:
    """Shared context for computations in one Q(zeta_m).

    Besides plain element construction this caches inverses of 1 -+ x^s in a
    redundant "group algebra" form: an integer vector v of length m plus a
    denominator d, standing for (1/d) * sum v[i] x^i taken mod Phi_m.  Sums
    of many such terms can then be accumulated with integer rotations and
    reduced modulo Phi_m once at the end.

    The inverses come from the norm factorisation over the roots of unity:
    if z has exact order d then prod_{u=1}^{d-1} (1 - z^u) = d, hence

        1/(1 - z) = (1/d) * prod_{u=2}^{d-1} (1 - z^u),

    and for odd d similarly prod_{u=1}^{d-1} (1 + z^u) = 1 gives

        1/(1 + z) = prod_{u=2}^{d-1} (1 + z^u).
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("field order must be a positive integer")
        self.m = m
        self.phi = _phi_int_coeffs(m)
        self.deg = len(self.phi) - 1
        self._inv_minus: dict[int, tuple[tuple[int, ...], int]] = {}
        self._inv_plus: dict[int, tuple[tuple[int, ...], int]] = {}

    # -- element constructors ------------------------------------------------

    def zero(self) -> CycloElem:
        return CycloElem.zero(self.m)

    def one(self) -> CycloElem:
        return CycloElem.one(self.m)

    def rational(self, c: Coeff) -> CycloElem:
        return CycloElem.from_rational(self.m, c)

    def root(self, t: int) -> CycloElem:
        return CycloElem.root_power(self.m, t)

    def element(self, vec: Sequence[int], den: int = 1) -> CycloElem:
        """Reduce a group-algebra vector mod Phi_m into a field element."""
        out = list(vec)
        _reduce_int_vec(out, self.phi)
        return CycloElem(self.m, out, den)

    # -- cached inverses of 1 -+ x^s ------------------------------------------

    def _product_vec(self, exponents: list[int], sign: int) -> list[int]:
        """prod over t in exponents of (1 + sign*x^t), in Z[x]/(x^m - 1)."""
        m = self.m
        vec = [0] * m
        vec[0] = 1
        for t in exponents:
            nxt = vec[:]
            if sign > 0:
                for i in range(m):
                    c = vec[i]
                    if c:
                        nxt[(i + t) % m] += c
            else:
                for i in range(m):
                    c = vec[i]
                    if c:
                        nxt[(i + t) % m] -= c
            vec = nxt
        return vec

    def inv_one_minus(self, s: int) -> tuple[tuple[int, ...], int]:
        """Group-algebra representative of 1/(1 - x^s); s must not be 0 mod m."""
        s %= self.m
        cached = self._inv_minus.get(s)
        if cached is not None:
            return cached
        if s == 0:
            raise ZeroDivisionError("1 - x^0 is zero")
        d = self.m // gcd(self.m, s)
        vec = self._product_vec([(s * u) % self.m for u in range(2, d)], -1)
        result = (tuple(vec), d)
        self._inv_minus[s] = result
        return result

    def inv_one_plus(self, s: int) -> tuple[tuple[int, ...], int]:
        """Group-algebra representative of 1/(1 + x^s)."""
        s %= self.m
        cached = self._inv_plus.get(s)
        if cached is not None:
            return cached
        if self.m % 2 == 0:
            if (s + self.m // 2) % self.m == 0:
                raise ZeroDivisionError("1 + x^s is zero")
            result = self.inv_one_minus((s + self.m // 2) % self.m)
        elif s == 0:
            vec = [0] * self.m
            vec[0] = 1
            result = (tuple(vec), 2)
        else:
            d = self.m // gcd(self.m, s)
            # m odd forces d odd, so 1 + x^s is a unit
            vec = self._product_vec([(s * u) % self.m for u in range(2, d)], +1)
            result = (tuple(vec), 1)
        self._inv_plus[s] = result
        return result


if __name__ == "__main__":
    import doctest

    doctest.testmod()
