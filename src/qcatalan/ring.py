"""Dense univariate polynomials over exact rational numbers.

Coefficients are plain Python ints whenever they are integral and
``fractions.Fraction`` otherwise; the two interoperate transparently and
compare equal when they agree, so normalising integral fractions down to
ints is purely a speed matter.  Polynomials are immutable, always stored
without trailing zero coefficients, and the zero polynomial has an empty
coefficient tuple.

Normalisation happens in the constructor, which skips the work when every
coefficient is already exactly an ``int``, and in the overlapping part of
``+`` / ``-``, where two coefficients meet (a scalar product is checked
the same way).  Everything else an operation copies from a normalised
input stays normalised: the tail of a sum, negation and ``shift`` build
their result with ``Poly._trusted`` without looking at it again.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import Iterable, Union

Coeff = Union[int, Fraction]


def as_coeff(c: Coeff) -> Coeff:
    """Normalise a rational scalar: integral fractions become ints."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"not an exact rational: {c!r}")


def _normalised(cs: list) -> list:
    """cs with integral fractions made ints; an all-int list is returned as is."""
    if all(type(c) is int for c in cs):
        return cs
    return [as_coeff(c) for c in cs]


def coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """Exact division of rational scalars (never produces a float)."""
    if b == 0:
        raise ZeroDivisionError("division by zero coefficient")
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return as_coeff(Fraction(a) / Fraction(b))


def render_coeff(c: Coeff) -> str:
    return str(c)


class Poly:
    """A polynomial c0 + c1*q + c2*q^2 + ... with exact rational coefficients.

    >>> Poly([1, 0, 1])
    Poly('1 + q^2')
    >>> Poly([1, 1]) * Poly([1, -1])
    Poly('1 - q^2')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = _normalised(list(coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, coeffs: list) -> "Poly":
        """Wrap an already-normalised coefficient list without revalidation."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c: Coeff) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Coeff, k: int) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Coeff:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Coeff:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return NotImplemented

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = _normalised(list(map(add, a, b)))
        out += a[len(b):]
        return Poly._trusted(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._trusted([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = _normalised(list(map(sub, a, b)))
        out += a[len(b):]
        out += [-c for c in b[len(a):]]
        return Poly._trusted(out)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(())
            return Poly._trusted(_normalised([c * other for c in self.coeffs]))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by q^k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self.coeffs:
            return self
        return Poly._trusted([0] * k + list(self.coeffs))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Return (quotient, remainder) with deg(remainder) < deg(other).

        Exact over the rationals; recombining always reproduces self.

        >>> Poly([-1, 0, 1]).divmod(Poly([-1, 1]))
        (Poly('1 + q'), Poly('0'))
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        da, db = self.degree, other.degree
        if da < db:
            return Poly(()), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        monic = lead == 1
        body = other.coeffs[:-1]
        quot = [0] * (da - db + 1)
        for i in range(da, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c if monic else coeff_div(c, lead)
            quot[i - db] = f
            rem[i] = 0
            off = i - db
            for j, bc in enumerate(body):
                if bc:
                    rem[off + j] -= f * bc
        return Poly(quot), Poly(rem)

    def __divmod__(self, other):
        return self.divmod(other)

    def exact_div(self, other: "Poly") -> "Poly":
        """Divide, requiring a zero remainder."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"inexact polynomial division (remainder {r.render()})")
        return q

    def eval(self, x: Coeff) -> Coeff:
        """Exact Horner evaluation at a rational point."""
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return as_coeff(acc) if isinstance(acc, Fraction) else acc

    # -- comparisons & rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def render(self, var: str = "q") -> str:
        """Human readable form like ``1 + 2*q^2 - 1/3*q^3``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = render_coeff(mag)
            else:
                v = var if k == 1 else f"{var}^{k}"
                body = v if mag == 1 else f"{render_coeff(mag)}*{v}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.render()!r})"


ZERO = Poly(())
ONE = Poly((1,))
Q = Poly((0, 1))


def one_minus_q_pow(t: int) -> Poly:
    """The binomial 1 - q^t (t >= 1)."""
    if t < 1:
        raise ValueError("exponent must be positive")
    return Poly((1,) + (0,) * (t - 1) + (-1,))
