"""Root-of-unity identity suites, evaluated exactly in Q(zeta_m).

Every suite assembles (left side) - (right side) as an exact linear
combination of terms c * x^e / (1 -+ x^s), accumulated in place in one
cyclotomic.GroupAlgebraElem (the group algebra Q[x]/(x^m - 1) over one
common denominator) and reduced modulo Phi_m only for the final zero test.
The inverses 1/(1 -+ x^s) are the closed forms of CycloField.inv_one_minus
and inv_one_plus (the discrete sawtooth -(1/d) sum_{u<d} u x^(su) and its
alternating variant).  The partial fractions, the logarithmic-derivative
sums and the sawtooth left side invert single field elements with
CycloElem.inv, a product of Galois conjugates over the field norm.  The
rearrangement lemma (mid) is the one identity in a free variable w: it is
certified by the integer Taylor series of lhs - rhs (verify_mid_identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

from .congruence import VerificationReport, run_check
from .cyclotomic import CycloElem, CycloField, GroupAlgebraElem


def _require_coprime(j: int, m: int) -> None:
    if gcd(j, m) != 1:
        raise ValueError(f"j = {j} is not coprime to {m}")


def _zero_witness(acc: GroupAlgebraElem) -> Optional[str]:
    elem = acc.value()
    return None if elem.is_zero() else elem.render()


# ---------------------------------------------------------------------------
# the central identity at q = zeta_{3n}^j


def verify_main3n(n: int, j: int) -> VerificationReport:
    """At q = zeta_{3n}^j with gcd(j, 3n) = 1:

        sum_{k=1}^{n} (-1)^k q^{k(3k-1)/2} / (1 - q^{3k-1})
      + sum_{k=1}^{n-1} (-1)^k q^{k(3k+5)/2} / (1 - q^{3k})
      = 1/3 + (3n+1)/6 * q^{2n}.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    m = 3 * n
    _require_coprime(j, m)

    def witness() -> Optional[str]:
        f = CycloField(m)
        acc = GroupAlgebraElem(f)
        for k in range(1, n + 1):
            num = k * (3 * k - 1)
            assert num % 2 == 0
            s = j * (3 * k - 1) % m
            assert s != 0, "denominator 1 - q^(3k-1) vanished"
            acc.add_vec(f.inv_one_minus(s), j * (num // 2), (-1) ** k)
        for k in range(1, n):
            num = k * (3 * k + 5)
            assert num % 2 == 0
            s = 3 * j * k % m
            assert s != 0, "denominator 1 - q^(3k) vanished"
            acc.add_vec(f.inv_one_minus(s), j * (num // 2), (-1) ** k)
        acc.add_monomial(Fraction(-1, 3))
        acc.add_monomial(Fraction(-(3 * n + 1), 6), 2 * n * j)
        return _zero_witness(acc)

    return run_check("main3n", {"n": n, "j": j}, witness)


def verify_explicit(n: int, j: int) -> VerificationReport:
    """At q = zeta_{3n}^j: sum_{k=1}^{n} 1/(1 - q^{3k-1}) = (n/3)(1 - q^n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = 3 * n
    _require_coprime(j, m)

    def witness() -> Optional[str]:
        f = CycloField(m)
        acc = GroupAlgebraElem(f)
        for k in range(1, n + 1):
            acc.add_vec(f.inv_one_minus(j * (3 * k - 1) % m))
        acc.add_monomial(Fraction(-n, 3))
        acc.add_monomial(Fraction(n, 3), j * n)
        return _zero_witness(acc)

    return run_check("explicit", {"n": n, "j": j}, witness)


def verify_main3n_new(n: int, j: int) -> VerificationReport:
    """The half-power rearrangement of the central identity, verified in
    Q(zeta_{6n}) with the square root of q pinned to zeta_{6n}^j (so every
    q^{t/2} means x^{jt}):

        (-1)^(n-1)/2 * sum_{k<n} q^{k(3n+2)/2} / (1 + q^{3k/2})
      + 1/2 * sum_{k<n} (-1)^k q^{k(3n+2)/2} / (1 - q^{3k/2})
      + (n/3)(1 - q^n) - sum_{k=1}^{floor((n+1)/2)} 1/(1 - q^{3k-2})
      - (2n - 1 + (-1)^n)/4  =  1/3 + (3n+1)/6 * q^{2n}.
    """
    _require_coprime(j, 3 * n)
    m = 6 * n

    def witness() -> Optional[str]:
        f = CycloField(m)
        acc = GroupAlgebraElem(f)
        half_sign = Fraction((-1) ** (n - 1), 2)
        for k in range(1, n):
            e = j * k * (3 * n + 2) % m
            s = 3 * j * k % m
            acc.add_vec(f.inv_one_plus(s), e, half_sign)
            acc.add_vec(f.inv_one_minus(s), e, Fraction((-1) ** k, 2))
        acc.add_monomial(Fraction(n, 3))
        acc.add_monomial(Fraction(-n, 3), 2 * j * n)
        for k in range(1, (n + 1) // 2 + 1):
            acc.add_vec(f.inv_one_minus(2 * j * (3 * k - 2) % m), 0, -1)
        acc.add_monomial(Fraction(-(2 * n - 1 + (-1) ** n), 4))
        acc.add_monomial(Fraction(-1, 3))
        acc.add_monomial(Fraction(-(3 * n + 1), 6), 4 * j * n)
        return _zero_witness(acc)

    return run_check("main3n-new", {"n": n, "j": j}, witness)


# ---------------------------------------------------------------------------
# parity split: n = 2N and n = 2N - 1


def verify_even_case(N: int, j: int) -> VerificationReport:
    """The even branch n = 2N at q = zeta_{6N}^j: both the simplified
    display

        q^{2N} sum_{k<N} q^k/(1-q^{6k}) + sum_{k<=N} q^{2k-1}/(1-q^{6k-3})
        + (2N/3)(1-q^{2N}) - sum_{k<=N} 1/(1-q^{3k-2}) - N
        = 1/3 - (N + 1/6) q^N

    and, with w = q^N (so 1 - w + w^2 = 0 and w^3 = -1), the core identity

        w^2 sum_{k<N} q^k/(1-q^{6k}) + sum_{k<=N} q^{2k-1}/(1-q^{6k-3})
        - sum_{k<=N} 1/(1-q^{3k-2}) = -(N/3)(1+w) + 1/3 - w/6.
    """
    m = 6 * N
    _require_coprime(j, m)
    assert j % 6 in (1, 5)

    def witness() -> Optional[str]:
        f = CycloField(m)

        def shared(acc: GroupAlgebraElem) -> None:
            for k in range(1, N):
                acc.add_vec(f.inv_one_minus(6 * k * j % m), j * (2 * N + k))
            for k in range(1, N + 1):
                acc.add_vec(f.inv_one_minus((6 * k - 3) * j % m), j * (2 * k - 1))
            for k in range(1, N + 1):
                acc.add_vec(f.inv_one_minus((3 * k - 2) * j % m), 0, -1)

        display = GroupAlgebraElem(f)
        shared(display)
        display.add_monomial(Fraction(2 * N, 3))
        display.add_monomial(Fraction(-2 * N, 3), 2 * N * j)
        display.add_monomial(-N)
        display.add_monomial(Fraction(-1, 3))
        display.add_monomial(Fraction(6 * N + 1, 6), N * j)

        core = GroupAlgebraElem(f)
        shared(core)
        core.add_monomial(Fraction(N, 3) - Fraction(1, 3))
        core.add_monomial(Fraction(N, 3) + Fraction(1, 6), N * j)

        w1 = _zero_witness(display)
        if w1 is not None:
            return f"display residue: {w1}"
        w2 = _zero_witness(core)
        if w2 is not None:
            return f"core residue: {w2}"
        return None

    return run_check("even", {"N": N, "j": j}, witness)


def verify_odd_case(N: int, j: int) -> VerificationReport:
    """The odd branch n = 2N - 1 at q = zeta_{3(2N-1)}^j: the display

        q^{2N-1} sum_{k<N} q^k/(1-q^{6k}) + sum_{k<N} q^{2k}/(1-q^{6k})
        + ((2N-1)/3)(1-q^{2N-1}) - sum_{k<=N} 1/(1-q^{3k-2}) - (N-1)
        = 1/3 + (N - 1/3) q^{2(2N-1)}

    and, with w = -q^{2(2N-1)} (so w^2 = q^{2N-1}), the core identity

        w^2 sum_{k<N} q^k/(1-q^{6k}) + sum_{k<N} q^{2k}/(1-q^{6k})
        - sum_{k<=N} 1/(1-q^{3k-2}) = -(N/3)(1+w).
    """
    m = 6 * N - 3
    _require_coprime(j, m)

    def witness() -> Optional[str]:
        f = CycloField(m)

        def shared(acc: GroupAlgebraElem) -> None:
            for k in range(1, N):
                s = 6 * k * j % m
                acc.add_vec(f.inv_one_minus(s), j * (2 * N - 1 + k))
                acc.add_vec(f.inv_one_minus(s), 2 * k * j)
            for k in range(1, N + 1):
                acc.add_vec(f.inv_one_minus((3 * k - 2) * j % m), 0, -1)

        display = GroupAlgebraElem(f)
        shared(display)
        display.add_monomial(Fraction(2 * N - 1, 3))
        display.add_monomial(Fraction(-(2 * N - 1), 3), (2 * N - 1) * j)
        display.add_monomial(-(N - 1))
        display.add_monomial(Fraction(-1, 3))
        display.add_monomial(-(N - Fraction(1, 3)), 2 * (2 * N - 1) * j)

        core = GroupAlgebraElem(f)
        shared(core)
        core.add_monomial(Fraction(N, 3))
        core.add_monomial(Fraction(-N, 3), 2 * (2 * N - 1) * j)

        w1 = _zero_witness(display)
        if w1 is not None:
            return f"display residue: {w1}"
        w2 = _zero_witness(core)
        if w2 is not None:
            return f"core residue: {w2}"
        return None

    return run_check("odd", {"N": N, "j": j}, witness)


# ---------------------------------------------------------------------------
# the A/B/C quantities and their properties


@dataclass(frozen=True)
class EvenOddAuxiliaries:
    """The six A sums, the B and C sums, and w, for one parity branch.

    In the odd branch the B sums are not defined (the third one hits the
    pole 1 + w q^{2N-1} = 0 at k = N), so b1, b2, b3 are None there.
    """

    a1: CycloElem
    a2: CycloElem
    a3: CycloElem
    a4: CycloElem
    a5: CycloElem
    a6: CycloElem
    b1: Optional[CycloElem]
    b2: Optional[CycloElem]
    b3: Optional[CycloElem]
    c1: CycloElem
    c2: CycloElem
    omega: CycloElem


def _sum_inverses(
    f: CycloField, kind: Callable[[int], tuple[tuple[int, ...], int]], exps: list[int]
) -> CycloElem:
    acc = GroupAlgebraElem(f)
    for s in exps:
        acc.add_vec(kind(s))
    return acc.value()


def compute_auxiliaries(N: int, j: int, case: str) -> EvenOddAuxiliaries:
    """A1..A6 (k = 1..N-1), B1..B3 and C1, C2 (k = 1..N) by exact field
    arithmetic; `case` selects the parity branch ("even": q = zeta_{6N}^j,
    w = q^N; "odd": q = zeta_{3(2N-1)}^j, w = -q^{2(2N-1)})."""
    if case == "even":
        m = 6 * N
        _require_coprime(j, m)
        f = CycloField(m)
        ks = range(1, N)
        a1 = _sum_inverses(f, f.inv_one_minus, [j * k % m for k in ks])
        a2 = _sum_inverses(f, f.inv_one_minus, [j * (N + k) % m for k in ks])
        a3 = _sum_inverses(f, f.inv_one_minus, [j * (2 * N + k) % m for k in ks])
        a4 = _sum_inverses(f, f.inv_one_plus, [j * k % m for k in ks])
        a5 = _sum_inverses(f, f.inv_one_plus, [j * (N + k) % m for k in ks])
        a6 = _sum_inverses(f, f.inv_one_plus, [j * (2 * N + k) % m for k in ks])
        kb = range(1, N + 1)
        b1 = _sum_inverses(f, f.inv_one_minus, [j * (2 * k - 1) % m for k in kb])
        b2 = _sum_inverses(f, f.inv_one_minus, [j * (2 * N + 2 * k - 1) % m for k in kb])
        b3 = _sum_inverses(f, f.inv_one_plus, [j * (N + 2 * k - 1) % m for k in kb])
        c1 = _sum_inverses(f, f.inv_one_minus, [j * (3 * k - 1) % m for k in kb])
        c2 = _sum_inverses(f, f.inv_one_minus, [j * (3 * k - 2) % m for k in kb])
        omega = CycloElem.root_power(m, j * N)
        return EvenOddAuxiliaries(a1, a2, a3, a4, a5, a6, b1, b2, b3, c1, c2, omega)
    if case == "odd":
        m = 6 * N - 3
        _require_coprime(j, m)
        f = CycloField(m)
        ks = range(1, N)
        two = 2 * (2 * N - 1)
        a1 = _sum_inverses(f, f.inv_one_minus, [j * k % m for k in ks])
        a2 = _sum_inverses(f, f.inv_one_plus, [j * (two + k) % m for k in ks])
        a3 = _sum_inverses(f, f.inv_one_minus, [j * (2 * N - 1 + k) % m for k in ks])
        a4 = _sum_inverses(f, f.inv_one_plus, [j * k % m for k in ks])
        a5 = _sum_inverses(f, f.inv_one_minus, [j * (two + k) % m for k in ks])
        a6 = _sum_inverses(f, f.inv_one_plus, [j * (2 * N - 1 + k) % m for k in ks])
        kb = range(1, N + 1)
        c1 = _sum_inverses(f, f.inv_one_minus, [j * (3 * k - 1) % m for k in kb])
        c2 = _sum_inverses(f, f.inv_one_minus, [j * (3 * k - 2) % m for k in kb])
        omega = -CycloElem.root_power(m, two * j)
        return EvenOddAuxiliaries(a1, a2, a3, a4, a5, a6, None, None, None, c1, c2, omega)
    raise ValueError("case must be 'even' or 'odd'")


def multiset_identity_holds(N: int) -> bool:
    """{k} u {2N-1-k} = {2k} u {2N-1-2k} over 1 <= k <= N-1, as multisets."""
    ks = range(1, N)
    left = sorted(list(ks) + [2 * N - 1 - k for k in ks])
    right = sorted([2 * k for k in ks] + [2 * N - 1 - 2 * k for k in ks])
    return left == right


def verify_aux_properties(N: int, j: int, case: str) -> VerificationReport:
    """Check the named properties of the auxiliary sums.

    even: B2 = N/2, B1 + B3 = N, and A_l + A_{7-l} = N - 1 for l = 1, 2, 3.
    odd: the A-relation A1 + A3 - A4 - 2 A5 + A6 = 0, its two partial-
    fraction reformulations (the three-term combination over 1 -+ q^{3k}
    and the (1 + w q^{3k})(1 - w q^k) product form), the two-sided
    reindexed sum equality, and the integer multiset identity behind it.
    """
    if case not in ("even", "odd"):
        raise ValueError("case must be 'even' or 'odd'")
    params = {"N": N, "j": j, "even": 1 if case == "even" else 0}

    def witness() -> Optional[str]:
        failures: list[str] = []
        aux = compute_auxiliaries(N, j, case)
        if case == "even":
            if aux.b2 != Fraction(N, 2):
                failures.append(f"B2 != N/2: {aux.b2.render()}")
            if aux.b1 + aux.b3 != N:
                failures.append(f"B1+B3 != N: {(aux.b1 + aux.b3).render()}")
            pairs = [(aux.a1, aux.a6), (aux.a2, aux.a5), (aux.a3, aux.a4)]
            for idx, (lo, hi) in enumerate(pairs, start=1):
                if lo + hi != N - 1:
                    failures.append(f"A{idx}+A{7 - idx} != N-1: {(lo + hi).render()}")
        else:
            m = 6 * N - 3
            f = CycloField(m)
            rel = aux.a1 + aux.a3 - aux.a4 - aux.a5 - aux.a5 + aux.a6
            if not rel.is_zero():
                failures.append(f"A-relation residue: {rel.render()}")

            a = 2 * (2 * N - 1) * j  # w = -x^a
            sum3 = GroupAlgebraElem(f)
            sum4 = GroupAlgebraElem(f)
            for k in range(1, N):
                s3 = 3 * j * k % m
                # q^k (1 - q^k) / (1 + q^{3k})
                sum3.add_vec(f.inv_one_plus(s3), j * k)
                sum3.add_vec(f.inv_one_plus(s3), 2 * j * k, -1)
                # 3 w q^k (1 - w q^k) / (1 - q^{3k}), w q^k = -x^{a+jk}
                sum3.add_vec(f.inv_one_minus(s3), a + j * k, -3)
                sum3.add_vec(f.inv_one_minus(s3), 2 * (a + j * k), -3)
                # - w^2 q^k (1 - w^2 q^k) / (1 + q^{3k}), w^2 q^k = x^{2a+jk}
                sum3.add_vec(f.inv_one_plus(s3), 2 * a + j * k, -1)
                sum3.add_vec(f.inv_one_plus(s3), 4 * a + 2 * j * k)
                # q^k (1 + w q^{3k})(1 - w q^k) / (1 - q^{6k})
                s6 = 6 * j * k % m
                sum4.add_vec(f.inv_one_minus(s6), j * k)
                sum4.add_vec(f.inv_one_minus(s6), a + 2 * j * k)
                sum4.add_vec(f.inv_one_minus(s6), a + 4 * j * k, -1)
                sum4.add_vec(f.inv_one_minus(s6), 2 * a + 5 * j * k, -1)
            w3 = _zero_witness(sum3)
            if w3 is not None:
                failures.append(f"three-term reformulation residue: {w3}")
            w4 = _zero_witness(sum4)
            if w4 is not None:
                failures.append(f"product-form residue: {w4}")

            sides = GroupAlgebraElem(f)
            for k in range(1, N):
                sides.add_vec(f.inv_one_minus(-2 * k * j % m))
                sides.add_vec(f.inv_one_minus(-(2 * k - 1) * j % m))
            for k in range(1, 2 * N - 1):
                sides.add_vec(f.inv_one_minus(-k * j % m), 0, -1)
            ws = _zero_witness(sides)
            if ws is not None:
                failures.append(f"two-sided sum residue: {ws}")
            if not multiset_identity_holds(N):
                failures.append("multiset identity failed")
        return "; ".join(failures) if failures else None

    return run_check("aux", params, witness)


# ---------------------------------------------------------------------------
# partial fraction decompositions over Q(zeta_6)


def _pfd_points(count: int) -> Iterator[Fraction]:
    yield Fraction(2)
    yield Fraction(1, 3)
    yield Fraction(5, 7)
    produced = 3
    h = 2
    while produced < count:
        for p in range(1, h):
            if gcd(p, h) == 1:
                for t in (Fraction(h, p), Fraction(p, h), Fraction(-h, p)):
                    if t not in (Fraction(2), Fraction(1, 3), Fraction(5, 7)):
                        yield t
                        produced += 1
                        if produced >= count:
                            return
        h += 1


def verify_pfd(kind: str, points: int = 20) -> VerificationReport:
    """Exact partial-fraction identities over Q(zeta_6), with w = zeta_6,
    checked at `points` rational arguments away from all poles:

        pfd6:  6x/(1-x^6) = 1/(1-x) - w/(1-w^2 x) + w^2/(1+w x)
                            - 1/(1+x) + w/(1+w^2 x) - w^2/(1-w x)
        pfd3:  3x/(1-x^3) = 1/(1-x) - w/(1-w^2 x) + w^2/(1+w x)
        cube:  3x(1-x)/(1+x^3) = -2/(1+x) + 1/(1-w x) + 1/(1+w^2 x)

    (the residues of x(1-x)/(1+x^3) at -1, w^-1, -w^-2 are -2/3, 1/3 and
    1/3, so the cube identity carries the same normalising factor as the
    other two).  Twenty points exceed every degree bound here, so
    agreement certifies the rational-function identity, not just a sample
    of it.
    """
    if kind not in ("pfd3", "pfd6", "cube"):
        raise ValueError("kind must be one of pfd3, pfd6, cube")
    one = CycloElem.one(6)
    w = CycloElem.root_power(6, 1)
    w2 = CycloElem.root_power(6, 2)

    def sides(x: Fraction) -> tuple[CycloElem, CycloElem]:
        if kind == "pfd6":
            lhs = CycloElem.from_rational(6, 6 * x / (1 - x**6))
            rhs = (
                CycloElem.from_rational(6, Fraction(1) / (1 - x))
                - w * (one - w2 * x).inv()
                + w2 * (one + w * x).inv()
                - CycloElem.from_rational(6, Fraction(1) / (1 + x))
                + w * (one + w2 * x).inv()
                - w2 * (one - w * x).inv()
            )
        elif kind == "pfd3":
            lhs = CycloElem.from_rational(6, 3 * x / (1 - x**3))
            rhs = (
                CycloElem.from_rational(6, Fraction(1) / (1 - x))
                - w * (one - w2 * x).inv()
                + w2 * (one + w * x).inv()
            )
        else:
            lhs = CycloElem.from_rational(6, 3 * x * (1 - x) / (1 + x**3))
            rhs = (
                CycloElem.from_rational(6, Fraction(-2) / (1 + x))
                + (one - w * x).inv()
                + (one + w2 * x).inv()
            )
        return lhs, rhs

    def witness() -> Optional[str]:
        for x in _pfd_points(points):
            lhs, rhs = sides(x)
            if lhs != rhs:
                return f"disagreement at x = {x}: {(lhs - rhs).render()}"
        return None

    kind_code = {"pfd3": 3, "pfd6": 6, "cube": 0}[kind]
    return run_check("pfd", {"kind": kind_code, "points": points}, witness)


# ---------------------------------------------------------------------------
# power-series certification of the rearrangement identity


def _mid_lhs(n: int, w: Fraction) -> Fraction:
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction((-1) ** k) * w ** (k * (3 * k - 1)) / (1 - w ** (2 * (3 * k - 1)))
    for k in range(1, n):
        total += Fraction((-1) ** k) * w ** (k * (3 * k + 5)) / (1 - w ** (6 * k))
    return total


def _mid_rhs(n: int, w: Fraction) -> Fraction:
    total = -Fraction(2 * n - 1 + (-1) ** n, 4)
    sign = (-1) ** (n - 1)
    for k in range(1, n):
        p = w ** (k * (3 * n + 2))
        total += Fraction(sign, 2) * p / (1 + w ** (3 * k))
        total += Fraction((-1) ** k, 2) * p / (1 - w ** (3 * k))
    for k in range(1, n + 1):
        total += Fraction(1) / (1 - w ** (2 * (3 * k - 1)))
    for k in range(1, (n + 1) // 2 + 1):
        total -= Fraction(1) / (1 - w ** (2 * (3 * k - 2)))
    return total


# A side of the identity as const + sum c * w^e / (1 - t * w^s) over
# (c, e, s, t), t = +-1, e >= 0, s >= 1; the same terms as _mid_lhs / _mid_rhs.
_MidSide = tuple[Fraction, list[tuple[Fraction, int, int, int]]]


def _mid_lhs_terms(n: int) -> _MidSide:
    terms = [
        (Fraction((-1) ** k), k * (3 * k - 1), 2 * (3 * k - 1), 1)
        for k in range(1, n + 1)
    ]
    terms += [(Fraction((-1) ** k), k * (3 * k + 5), 6 * k, 1) for k in range(1, n)]
    return Fraction(0), terms


def _mid_rhs_terms(n: int) -> _MidSide:
    sign = Fraction((-1) ** (n - 1), 2)
    terms = []
    for k in range(1, n):
        e = k * (3 * n + 2)
        terms.append((sign, e, 3 * k, -1))
        terms.append((Fraction((-1) ** k, 2), e, 3 * k, 1))
    terms += [(Fraction(1), 0, 2 * (3 * k - 1), 1) for k in range(1, n + 1)]
    terms += [
        (Fraction(-1), 0, 2 * (3 * k - 2), 1) for k in range(1, (n + 1) // 2 + 1)
    ]
    return -Fraction(2 * n - 1 + (-1) ** n, 4), terms


def mid_degree_bound(n: int) -> int:
    """Bound on deg P, P = (lhs - rhs) * Q and Q the product of every
    term's denominator 1 - t w^s on both sides: the sum of all s plus the
    largest of 0 and every e - s (c w^e Q / (1 - t w^s) has degree
    e - s + deg Q)."""
    terms = _mid_lhs_terms(n)[1] + _mid_rhs_terms(n)[1]
    return sum(s for _, _, s, _ in terms) + max([0] + [e - s for _, e, s, _ in terms])


def verify_mid_identity(n: int) -> VerificationReport:
    """Certify the rearrangement identity behind main3n-new as an identity
    of rational functions in w, by the Taylor series of lhs - rhs.

    Every term is c * w^e / (1 - t w^s) with s >= 1, so the common
    denominator Q (the product of all 1 - t w^s) has Q(0) = 1 and is a
    unit in Q[[w]], and the numerator P = (lhs - rhs) * Q has degree at
    most B = mid_degree_bound(n).  Hence P = 0 exactly when the series of
    lhs - rhs vanishes through w^B (Stanley, Enumerative Combinatorics I,
    section 4.1).  Each term adds c * t^i at position e + i*s; the sides
    are scaled by the lcm of the coefficient denominators, so the B + 1
    coefficients are integers.  The witness is the lowest nonzero one.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    size = mid_degree_bound(n) + 1

    def witness() -> Optional[str]:
        (c_l, lhs), (c_r, rhs) = _mid_lhs_terms(n), _mid_rhs_terms(n)
        # the constants enter as c / (1 - w^size), which is c through w^B
        terms = [(c_l - c_r, 0, size, 1)] + lhs + [(-c, e, s, t) for c, e, s, t in rhs]
        scale = math.lcm(*(c.denominator for c, _, _, _ in terms))
        series = [0] * size
        for c, e, s, t in terms:
            c = c.numerator * (scale // c.denominator)
            for i, pos in enumerate(range(e, size, s)):
                series[pos] += c * t**i
        low = next((p for p, v in enumerate(series) if v), None)
        if low is None:
            return None
        return f"lhs - rhs = {Fraction(series[low], scale)}*w^{low} + O(w^{low + 1})"

    return run_check("mid", {"n": n, "points": size}, witness)


# ---------------------------------------------------------------------------
# the logarithmic-derivative lemma


def verify_extan(m: int, z: Fraction) -> VerificationReport:
    """For a primitive m-th root a of unity and rational z with z^m != 1:

        sum_{k=1}^{m} 1/(1 - z^{-1} a^k) = m / (1 - z^{-m}).
    """
    if m < 1:
        raise ValueError("need m >= 1")
    z = Fraction(z)
    if z == 0:
        raise ValueError("z must be nonzero")
    if z**m == 1:
        raise ValueError("z^m = 1 makes the right side singular")
    params = {"m": m, "z_num": z.numerator, "z_den": z.denominator}

    def witness() -> Optional[str]:
        zinv = 1 / z
        one = CycloElem.one(m)
        total = CycloElem.zero(m)
        for k in range(1, m + 1):
            total = total + (one - CycloElem.root_power(m, k) * zinv).inv()
        diff = total - CycloElem.from_rational(m, Fraction(m) / (1 - zinv**m))
        return None if diff.is_zero() else diff.render()

    return run_check("extan", params, witness)


# ---------------------------------------------------------------------------
# trigonometric form and the sawtooth expansion


def verify_trig_identity(N: int, tol: float = 1e-9) -> VerificationReport:
    """With x = pi/(6N-3):

        sum_{k=1}^{N-1} ( csc(2kx) + cot((2N-1-k)x) - cot((2N-1-2k)x) ) = 0,

    checked in double precision with exact compensated summation.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    def witness() -> Optional[str]:
        x = math.pi / (6 * N - 3)
        terms: list[float] = []
        for k in range(1, N):
            assert 2 * N - 1 - 2 * k != 0
            terms.append(1.0 / math.sin(2 * k * x))
            terms.append(1.0 / math.tan((2 * N - 1 - k) * x))
            terms.append(-1.0 / math.tan((2 * N - 1 - 2 * k) * x))
        total = math.fsum(terms)
        return None if abs(total) < tol else f"|sum| = {abs(total):.3e} >= {tol:.1e}"

    return run_check("trig", {"N": N}, witness)


def verify_sawtooth(N: int, j: int, k: int) -> VerificationReport:
    """The finite Fourier expansion, at q = zeta_{3(2N-1)}^j and k not
    divisible by 2N-1:

        1/(1 - q^{6k}) = -1/(2N-1) * sum_{u=0}^{2N-2} u q^{6uk}.

    The left side is inverted with CycloElem.inv, i.e. as the product of
    the Galois conjugates 1 - q^{6kt} (t a unit, t != 1) over their
    rational product N(1 - q^{6k}).  That is a product, not a sum over u,
    so the expansion under test is not used to compute it.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    m = 6 * N - 3
    _require_coprime(j, m)
    if k % (2 * N - 1) == 0:
        raise ValueError("k must not be divisible by 2N-1")
    f6 = 6 * k * j % m
    assert f6 != 0, "q^{6k} = 1 despite the precondition"

    def witness() -> Optional[str]:
        f = CycloField(m)
        lhs = (CycloElem.one(m) - CycloElem.root_power(m, f6)).inv()
        acc = GroupAlgebraElem(f)
        for u in range(2 * N - 1):
            acc.add_monomial(Fraction(-u, 2 * N - 1), u * f6)
        diff = lhs - acc.value()
        return None if diff.is_zero() else diff.render()

    return run_check("sawtooth", {"N": N, "j": j, "k": k}, witness)


# ---------------------------------------------------------------------------
# orbit sweeps


def galois_orbit(m: int) -> list[int]:
    """All admissible j for a primitive m-th root context: 1 <= j < m with
    gcd(j, m) = 1 (j = 1 when m = 1)."""
    if m == 1:
        return [1]
    return [j for j in range(1, m) if gcd(j, m) == 1]
