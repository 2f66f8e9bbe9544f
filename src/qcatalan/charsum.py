"""Dirichlet characters of odd modulus and the character-sum identity

    ( sum_{j=0}^{2N-2} j chi(6j+1) ) ( sum_{k=1}^{2N-2} eps^{(2N-1)k} chi(k) )
  = -( sum_{j=0}^{2N-2} j chi(6j+2) ) ( sum_{k=1-N}^{N-1} eps^{2(2N-1)k+2} chi(k) )

for every non-principal character of period m = 2N-1 coprime to 3, with
eps a primitive cube root of unity.  All four sums live in Q(zeta_L),
L = lcm(3, order of chi), and the identity is a single-field zero test.

Exact mode sums the identity once per Galois orbit of characters.  With
e = order of chi, the orbit of chi is {chi^a : gcd(a, e) = 1, and
a = 1 mod 3 when 3 | e}; its representative is the member with the
smallest exponent tuple.  If chi = rep^a', take b = a' mod e and
b = 1 mod 3 (by the CRT mod L when 3 does not divide e).  Then
sigma_b: x -> x^b is an automorphism of Q[x]/(x^L - 1) that maps each
value of rep to the matching value of chi and fixes eps = zeta_L^(L/3);
the weights j are integers.  So sigma_b maps S1 T1 + S2 T2 for rep onto
the same value for chi, entry for entry, denominator and all, and a check
is one conjugate(b) and one zero test.  Without b = 1 mod 3, sigma_b would
send eps to eps^2 and test a different identity.  Float mode reads the same
mapped value and embeds it by zeta_L -> exp(2 pi i / L): sigma_b acts on
the vector before the embedding, so the image is chi's own vector, and only
the verdict, a magnitude against a tolerance, differs.

Only odd moduli are supported; the identity needs m = 2N-1 and the
even-modulus machinery would be dead weight.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Callable, Optional

from .congruence import VerificationReport, run_check
from .cyclotomic import GroupAlgebraElem, _field_sum, euler_phi, factorize

# ---------------------------------------------------------------------------
# multiplicative structure of (Z/m)* for odd m, via CRT over prime powers


def primitive_root(p: int, a: int) -> int:
    """Smallest primitive root modulo p^a (p an odd prime)."""
    pk = p**a
    order = euler_phi(pk)
    prime_divs = [f for f, _ in factorize(order)]
    for g in range(2, pk):
        if g % p == 0:
            continue
        if all(pow(g, order // f, pk) != 1 for f in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root found modulo {pk}")


@dataclass(frozen=True)
class _GroupData:
    """CRT decomposition of (Z/m)* into cyclic factors with fixed generators."""

    prime_powers: tuple[int, ...]  # p^a per factor
    orders: tuple[int, ...]  # phi(p^a) per factor
    dlogs: tuple[dict[int, int], ...]  # residue -> discrete log, per factor


@lru_cache(maxsize=256)
def _group_data(m: int) -> _GroupData:
    if m < 3 or m % 2 == 0:
        raise ValueError("modulus must be an odd integer >= 3")
    if m > sys.maxsize:  # no exponent table of length m could be held
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    pps, orders, dlogs = [], [], []
    for p, a in factorize(m):
        pk = p**a
        g = primitive_root(p, a)
        order = euler_phi(pk)
        table: dict[int, int] = {}
        x = 1
        for i in range(order):
            table[x] = i
            x = x * g % pk
        pps.append(pk)
        orders.append(order)
        dlogs.append(table)
    return _GroupData(tuple(pps), tuple(orders), tuple(dlogs))


@dataclass(frozen=True)
class DirichletChar:
    """A Dirichlet character mod an odd m, encoded by one exponent per
    cyclic CRT factor: chi(g_i) = zeta_{s_i}^{exponents[i]}.

    Values are roots of unity of order `order`; chi vanishes on non-units.
    """

    modulus: int
    exponents: tuple[int, ...]

    @cached_property
    def order(self) -> int:
        data = _group_data(self.modulus)
        e = 1
        for s, t in zip(data.orders, self.exponents):
            e = lcm(e, s // gcd(s, t))
        return e

    def is_principal(self) -> bool:
        return all(t == 0 for t in self.exponents)

    @cached_property
    def exponent_table(self) -> tuple[Optional[int], ...]:
        """Entry a is t with chi(a) = zeta_e^t (e = self.order), or None
        when gcd(a, m) > 1.  Built on first use by one pass over range(m)
        per CRT factor: factor i adds d_i(a) * t_i * e / s_i, where d_i is
        the discrete log of a mod p_i^a_i (s_i / gcd(s_i, t_i) divides e,
        so the weight is an integer)."""
        m, e = self.modulus, self.order
        data = _group_data(m)
        table: list[Optional[int]] = [0] * m
        for pk, s, t, dlogs in zip(
            data.prime_powers, data.orders, self.exponents, data.dlogs
        ):
            weight = t * e // s
            local: list[Optional[int]] = [None] * pk
            for r, d in dlogs.items():
                local[r] = d * weight % e
            table = [
                None if x is None or y is None else (x + y) % e
                for x, y in zip(table, local * (m // pk))
            ]
        return tuple(table)

    def conductor(self) -> int:
        """The smallest period of the character (product of local conductors)."""
        data = _group_data(self.modulus)
        f = 1
        for (p, _), s, t in zip(
            factorize(self.modulus), data.orders, self.exponents
        ):
            comp_order = s // gcd(s, t)
            if comp_order == 1:
                continue
            v = 0
            while comp_order % p == 0:
                comp_order //= p
                v += 1
            f *= p ** (1 + v)
        return f

    @classmethod
    def from_index(cls, m: int, idx: int) -> "DirichletChar":
        """The character numbered idx mod m: the exponent vector read as a
        mixed-radix number over the cyclic factor orders, first exponent
        least significant.  Inverse of `index`."""
        orders = _group_data(m).orders
        if not 0 <= idx < prod(orders):
            raise ValueError(f"no character number {idx} mod {m}")
        exps = []
        for s in orders:
            idx, t = divmod(idx, s)
            exps.append(t)
        return cls(m, tuple(exps))

    @property
    def index(self) -> int:
        """The position of this character in `character_group(modulus)`."""
        data = _group_data(self.modulus)
        idx = 0
        for s, t in zip(reversed(data.orders), reversed(self.exponents)):
            idx = idx * s + t
        return idx

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        data = _group_data(self.modulus)
        exps = tuple(
            (a + b) % s for a, b, s in zip(self.exponents, other.exponents, data.orders)
        )
        return DirichletChar(self.modulus, exps)


def character_group(m: int) -> list[DirichletChar]:
    """All phi(m) Dirichlet characters mod odd m >= 3, principal first.

    Enumeration order is deterministic: character number idx is
    `DirichletChar.from_index(m, idx)`.
    """
    chars = [
        DirichletChar.from_index(m, idx) for idx in range(prod(_group_data(m).orders))
    ]
    assert len(chars) == euler_phi(m)
    return chars


# ---------------------------------------------------------------------------
# the four sums and the identity


@dataclass(frozen=True)
class CharSums:
    """The four exact sums entering the identity, as lazy values of
    Q(zeta_L) in the group algebra, each summed by _field_sum."""

    s1: GroupAlgebraElem
    s2: GroupAlgebraElem
    t1: GroupAlgebraElem
    t2: GroupAlgebraElem


def _check_period(N: int, chi: DirichletChar) -> None:
    """Raise ValueError unless N >= 2, 3 does not divide 2N-1 and chi is a
    character mod 2N-1."""
    if N < 2:
        raise ValueError("need N >= 2")
    if (2 * N - 1) % 3 == 0:
        raise ValueError("2N-1 must not be divisible by 3")
    if chi.modulus != 2 * N - 1:
        raise ValueError("character modulus must equal 2N-1")


def compute_char_sums(N: int, chi: DirichletChar) -> CharSums:
    """The weighted sums S1, S2 (j-weighted over chi(6j+1), chi(6j+2)) and
    the eps-twisted sums T1, T2, all in Q(zeta_L) with L = lcm(3, order)."""
    _check_period(N, chi)
    m = 2 * N - 1
    e = chi.order
    L = lcm(3, e)
    scale = L // e
    eps = L // 3  # eps = zeta_L^(L/3)
    # chi(a) = zeta_L^at[a % m], or 0 where at[a % m] is None
    at = [None if t is None else scale * t for t in chi.exponent_table]

    # each sum as monomial terms (c, e, 0, 0) = c * zeta_L^e
    js = range(2 * N - 1)
    s1_terms = [(j, t, 0, 0) for j in js if (t := at[(6 * j + 1) % m]) is not None]
    s2_terms = [(j, t, 0, 0) for j in js if (t := at[(6 * j + 2) % m]) is not None]
    t1_terms = [
        (1, t + eps * ((2 * N - 1) * k), 0, 0)
        for k in range(1, 2 * N - 1)
        if (t := at[k]) is not None
    ]
    t2_terms = [  # chi(0) = 0 drops the k = 0 term
        (1, t + eps * (2 * (2 * N - 1) * k + 2), 0, 0)
        for k in range(1 - N, N)
        if (t := at[k % m]) is not None
    ]
    return CharSums(
        *(_field_sum(L, terms) for terms in (s1_terms, s2_terms, t1_terms, t2_terms))
    )


def _orbit_rep(chi: DirichletChar) -> tuple[DirichletChar, int]:
    """(rep, b): the representative of chi's Galois orbit and the b, with
    gcd(b, L) = 1 and b = 1 mod 3, for which sigma_b maps rep's values onto
    chi's (L = lcm(3, order)).  Each power chi^a is read as its exponent
    tuple, with no DirichletChar built for it."""
    e = chi.order
    orders = _group_data(chi.modulus).orders
    powers = (
        (tuple(a * t % s for t, s in zip(chi.exponents, orders)), a)
        for a in range(1, e)
        if gcd(a, e) == 1 and (e % 3 or a % 3 == 1)
    )
    exps, a = min(powers)
    rep = chi if exps == chi.exponents else DirichletChar(chi.modulus, exps)
    b = pow(a, -1, e)  # chi = rep^b; when 3 | e, a = 1 mod 3 gives b = 1 mod 3
    if e % 3:  # lift b mod e to b = 1 mod 3, mod L = 3e
        b += e * ((1 - b) * e % 3)  # e * e = 1 mod 3
    return rep, b


@lru_cache(maxsize=64)
def _orbit_combo(
    sums_of: Callable[[int, DirichletChar], CharSums], N: int, rep: DirichletChar
) -> GroupAlgebraElem:
    """S1 * T1 + S2 * T2 for the orbit representative rep, from the sums
    sums_of(N, rep); the 64 most recently used orbits are memoised."""
    sums = sums_of(N, rep)
    return sums.s1 * sums.t1 + sums.s2 * sums.t2


def verify_taoconj(
    N: int, chi: DirichletChar, mode: str = "exact", tol: float = 1e-9
) -> VerificationReport:
    """S1 * T1 + S2 * T2 = 0 in Q(zeta_L) for non-principal chi mod 2N-1.

    Exact mode reads the value for the representative of chi's Galois
    orbit (_orbit_combo, summed by the first check of the orbit inside its
    timed witness), maps it by sigma_b: x -> x^b with b = 1 mod 3, which
    fixes eps and carries the representative's values onto chi's, and
    passes on the annihilator zero test of the image
    (GroupAlgebraElem.is_zero); the image equals chi's own value entry for
    entry, so a failure renders the same reduction mod Phi_L.  Float mode
    embeds that same image via zeta_L -> exp(2 pi i / L) and compares its
    magnitude against `tol`.
    """
    if chi.is_principal():
        raise ValueError("the identity excludes the principal character")
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    _check_period(N, chi)
    params = {"N": N, "m": 2 * N - 1, "chi": chi.index}

    def witness() -> Optional[str]:
        rep, b = _orbit_rep(chi)
        combo = _orbit_combo(compute_char_sums, N, rep).conjugate(b)
        if mode == "exact":
            return None if combo.is_zero() else combo.value().render()
        mag = abs(combo.value().to_complex())
        return None if mag < tol else f"|S1*T1 + S2*T2| = {mag:.3e} >= {tol:.1e}"

    return run_check("taoconj", params, witness)
