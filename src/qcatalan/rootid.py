"""Root-of-unity identity suites, evaluated exactly in Q(zeta_m).

Every field identity is (left side) - (right side) as one list of terms
(c, e, s, t), each c * q^e / (1 - t * q^s) with c and t rational; t = 0 is
the monomial c * q^e.  cyclotomic._field_sum, the one evaluator of such
lists, adds a list at q = x^j into one GroupAlgebraElem (the group algebra
Q[x]/(x^m - 1) over one common denominator), so no suite applies j to a
term itself; cyclotomic._field_witness tests the sum for zero and reduces
it mod Phi_m only to render a failure.  Inverses, each a closed form that
_field_sum writes straight into its vector, with no memo:

* t = +-1 (main3n, explicit, main3n-new, even, odd, aux): the discrete
  sawtooth -(1/d) sum_{u<d} u x^(su) where t^d = 1 (d the order of x^s),
  else the alternating geometric series;
* t = 1/z (extan), t = +-x at each rational point x (pfd): the geometric
  series sum_{u<d} t^u x^(su) / (1 - t^d);
* sawtooth: the expansion R passes when (1 - q^s) R - 1 is zero, with no
  inverse; a failure renders 1/(1 - q^s) - R by the t = 1 closed form.

main3n, explicit, even, odd and aux sweep whole Galois orbits.  Their term
lists do not depend on j, so each, less its rational target, is summed
once per orbit, at zeta_m (_orbit_sums), and the check at j maps that
difference by sigma_j: x -> x^j and zero-tests the image: a j sweep
re-tests sigma_j and the zero test, it does not re-derive the identity at
a new root.

The rearrangement lemma (mid) is the one identity in a free variable w: its
terms have the same shape, and it is certified by the integer Taylor series
of lhs - rhs (verify_mid_identity).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, count, islice
from math import gcd
from typing import Callable, Iterator, Optional

from .congruence import VerificationReport, _chain_sums, run_check
from .cyclotomic import CycloElem, GroupAlgebraElem, _field_sum, _field_witness, _Term
from .ring import Coeff

# A suite's named term lists: (label, terms, target), the terms summing to
# the rational target at q = zeta_m^j for every j coprime to m.
_Named = list[tuple[str, list[_Term], Coeff]]
_Builder = Callable[..., tuple[int, _Named]]


def _require_root(name: str, n: int, j: int, m: int) -> None:
    """Preconditions of q = zeta_m^j for a parameter n: n >= 1, gcd(j, m) = 1."""
    if n < 1:
        raise ValueError(f"need {name} >= 1")
    if gcd(j, m) != 1:
        raise ValueError(f"j = {j} is not coprime to {m}")


# ---------------------------------------------------------------------------
# one sum per Galois orbit


@lru_cache(maxsize=64)
def _orbit_sums(builder: _Builder, *key: object) -> list[tuple[str, GroupAlgebraElem, Coeff]]:
    """Each list of builder(*key) minus its target, summed at q = zeta_m,
    with its label and target: the value that each check zero-tests.  The
    builder is the suite and key its n (or N and the parity case); the 64
    most recently used orbits are memoised."""
    m, named = builder(*key)
    return [
        (label, _field_sum(m, terms + [(-target, 0, 0, 0)]), target)
        for label, terms, target in named
    ]


def _orbit_failures(builder: _Builder, key: tuple, j: int) -> Iterator[str]:
    """'<label>: <sum>' (the sum alone for an empty label), the sum at
    q = zeta_m^j, for each list of builder(*key) that misses its target.

    For gcd(j, m) = 1, sigma_j: x -> x^j is an automorphism of
    Q[x]/(x^m - 1), and it maps _field_sum(m, T, 1) onto _field_sum(m, T, j)
    entry for entry (Lang, Algebra, ch. VI section 3).  So the check at j is
    sigma_j of the memoised difference at zeta_m and one zero test; sigma_j
    fixes the rational target, which a failure adds back to render the sum.
    The memo is read here, inside the timed check, so the first check of an
    orbit pays for the sums.
    """
    for label, diff, target in _orbit_sums(builder, *key):
        diff = diff.conjugate(j)
        if not diff.is_zero():
            rendered = (diff + GroupAlgebraElem.monomial(diff.m, target)).value().render()
            yield f"{label}: {rendered}" if label else rendered


# ---------------------------------------------------------------------------
# the central identity at q = zeta_{3n}^j


def verify_main3n(n: int, j: int) -> VerificationReport:
    """At q = zeta_{3n}^j with gcd(j, 3n) = 1:

        sum_{k=1}^{n} (-1)^k q^{k(3k-1)/2} / (1 - q^{3k-1})
      + sum_{k=1}^{n-1} (-1)^k q^{k(3k+5)/2} / (1 - q^{3k})
      = 1/3 + (3n+1)/6 * q^{2n}.

    The left side is congruence._chain_sums(3n).
    """
    _require_root("n", n, j, 3 * n)

    def witness() -> Optional[str]:
        return next(_orbit_failures(_main3n_lists, (n,), j), None)

    return run_check("main3n", {"n": n, "j": j}, witness)


def _main3n_lists(n: int) -> tuple[int, _Named]:
    """m = 3n and lhs - rhs of the central identity, written in q."""
    m = 3 * n
    terms = [(Fraction(-1, 3), 0, 0, 0), (Fraction(-3 * n - 1, 6), 2 * n, 0, 0)]
    return m, [("", terms + _chain_sums(m), 0)]


def verify_explicit(n: int, j: int) -> VerificationReport:
    """At q = zeta_{3n}^j: sum_{k=1}^{n} 1/(1 - q^{3k-1}) = (n/3)(1 - q^n)."""
    _require_root("n", n, j, 3 * n)

    def witness() -> Optional[str]:
        return next(_orbit_failures(_explicit_lists, (n,), j), None)

    return run_check("explicit", {"n": n, "j": j}, witness)


def _explicit_lists(n: int) -> tuple[int, _Named]:
    """m = 3n and lhs - rhs of the explicit sum, written in q."""
    terms = [(1, 0, 3 * k - 1, 1) for k in range(1, n + 1)]
    terms += [(Fraction(-n, 3), 0, 0, 0), (Fraction(n, 3), n, 0, 0)]
    return 3 * n, [("", terms, 0)]


def verify_main3n_new(n: int, j: int) -> VerificationReport:
    """The half-power rearrangement of the central identity, verified in
    Q(zeta_{6n}) with the square root r of q pinned to zeta_{6n}^j (so every
    q^{t/2} is r^t, and the terms are written in r):

        (-1)^(n-1)/2 * sum_{k<n} q^{k(3n+2)/2} / (1 + q^{3k/2})
      + 1/2 * sum_{k<n} (-1)^k q^{k(3n+2)/2} / (1 - q^{3k/2})
      + (n/3)(1 - q^n) - sum_{k=1}^{floor((n+1)/2)} 1/(1 - q^{3k-2})
      - (2n - 1 + (-1)^n)/4  =  1/3 + (3n+1)/6 * q^{2n}.

    Unlike the other orbit suites it sums per j: j need only be coprime to
    3n, but the field is Q(zeta_{6n}), where for odd n and even j the map
    x -> x^j is not an automorphism, so no sum at zeta_{6n} maps onto it.
    """
    _require_root("n", n, j, 3 * n)
    m = 6 * n

    def witness() -> Optional[str]:
        terms = _rearranged_terms(n) + [
            (Fraction(n - 1, 3), 0, 0, 0),
            (Fraction(-n, 3), 2 * n, 0, 0),
            (Fraction(-(3 * n + 1), 6), 4 * n, 0, 0),
        ]
        return _field_witness(m, terms, j)

    return run_check("main3n-new", {"n": n, "j": j}, witness)


def _rearranged_terms(n: int) -> list[_Term]:
    """The terms that main3n-new and the mid right side share, written in
    the square root r of q (q^(t/2) is r^t): the two k < n families with
    s = 3k, -1/(1 - q^(3k-2)) for k <= (n+1)/2, and the constant
    -(2n - 1 + (-1)^n)/4."""
    sign = Fraction((-1) ** (n - 1), 2)
    terms: list[_Term] = []
    for k in range(1, n):
        e = k * (3 * n + 2)
        terms += [(sign, e, 3 * k, -1), (Fraction((-1) ** k, 2), e, 3 * k, 1)]
    terms += [(-1, 0, 2 * (3 * k - 2), 1) for k in range(1, (n + 1) // 2 + 1)]
    return terms + [(-Fraction(2 * n - 1 + (-1) ** n, 4), 0, 0, 0)]


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

    The witness is the first residue that is not zero, display first.
    """
    _require_root("N", N, j, 6 * N)

    def witness() -> Optional[str]:
        return next(_orbit_failures(_even_lists, (N,), j), None)

    return run_check("even", {"N": N, "j": j}, witness)


def _even_lists(N: int) -> tuple[int, _Named]:
    """m = 6N and lhs - rhs of the even display and core, written in q."""
    shared = [(1, 2 * N + k, 6 * k, 1) for k in range(1, N)]
    shared += [(1, 2 * k - 1, 6 * k - 3, 1) for k in range(1, N + 1)]
    shared += [(-1, 0, 3 * k - 2, 1) for k in range(1, N + 1)]
    display = shared + [
        (Fraction(2 * N, 3) - N - Fraction(1, 3), 0, 0, 0),
        (Fraction(-2 * N, 3), 2 * N, 0, 0),
        (Fraction(6 * N + 1, 6), N, 0, 0),
    ]
    core = shared + [(Fraction(N - 1, 3), 0, 0, 0)]
    core.append((Fraction(2 * N + 1, 6), N, 0, 0))
    return 6 * N, [("display residue", display, 0), ("core residue", core, 0)]


def verify_odd_case(N: int, j: int) -> VerificationReport:
    """The odd branch n = 2N - 1 at q = zeta_{3(2N-1)}^j: the display

        q^{2N-1} sum_{k<N} q^k/(1-q^{6k}) + sum_{k<N} q^{2k}/(1-q^{6k})
        + ((2N-1)/3)(1-q^{2N-1}) - sum_{k<=N} 1/(1-q^{3k-2}) - (N-1)
        = 1/3 + (N - 1/3) q^{2(2N-1)}

    and, with w = -q^{2(2N-1)} (so w^2 = q^{2N-1}), the core identity

        w^2 sum_{k<N} q^k/(1-q^{6k}) + sum_{k<N} q^{2k}/(1-q^{6k})
        - sum_{k<=N} 1/(1-q^{3k-2}) = -(N/3)(1+w).

    The witness is the first residue that is not zero, display first.
    """
    _require_root("N", N, j, 6 * N - 3)

    def witness() -> Optional[str]:
        return next(_orbit_failures(_odd_lists, (N,), j), None)

    return run_check("odd", {"N": N, "j": j}, witness)


def _odd_lists(N: int) -> tuple[int, _Named]:
    """m = 6N - 3 and lhs - rhs of the odd display and core, written in q."""
    shared: list[_Term] = []
    for k in range(1, N):
        shared += [(1, 2 * N - 1 + k, 6 * k, 1), (1, 2 * k, 6 * k, 1)]
    shared += [(-1, 0, 3 * k - 2, 1) for k in range(1, N + 1)]
    display = shared + [
        (Fraction(2 * N - 1, 3) - (N - 1) - Fraction(1, 3), 0, 0, 0),
        (Fraction(-(2 * N - 1), 3), 2 * N - 1, 0, 0),
        (Fraction(1, 3) - N, 2 * (2 * N - 1), 0, 0),
    ]
    core = shared + [(Fraction(N, 3), 0, 0, 0)]
    core.append((Fraction(-N, 3), 2 * (2 * N - 1), 0, 0))
    return 6 * N - 3, [("display residue", display, 0), ("core residue", core, 0)]


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


def _aux_order(N: int, case: str) -> int:
    """m of the parity branch: 6N for "even", 6N - 3 for "odd"."""
    if case not in ("even", "odd"):
        raise ValueError("case must be 'even' or 'odd'")
    return 6 * N if case == "even" else 6 * N - 3


def _aux_rows(N: int, case: str) -> tuple[int, dict[str, list[_Term]]]:
    """m and each auxiliary sum as terms 1/(1 - t q^s): A_l sums over k < N
    for the (t, h) of row l, B1..B3 (even only), C1, C2 to N."""
    m = _aux_order(N, case)
    if case == "even":
        a_rows = [(1, 0), (1, N), (1, 2 * N), (-1, 0), (-1, N), (-1, 2 * N)]
    else:
        two = 2 * (2 * N - 1)
        a_rows = [(1, 0), (-1, two), (1, 2 * N - 1), (-1, 0), (1, two), (-1, 2 * N - 1)]
    ks, kb = range(1, N), range(1, N + 1)
    rows = {f"a{i}": (t, [h + k for k in ks]) for i, (t, h) in enumerate(a_rows, 1)}
    rows["c1"], rows["c2"] = (1, [3 * k - 1 for k in kb]), (1, [3 * k - 2 for k in kb])
    if case == "even":
        rows["b1"] = (1, [2 * k - 1 for k in kb])
        rows["b2"] = (1, [2 * N + 2 * k - 1 for k in kb])
        rows["b3"] = (-1, [N + 2 * k - 1 for k in kb])
    return m, {name: [(1, 0, s, t) for s in ss] for name, (t, ss) in rows.items()}


def compute_auxiliaries(N: int, j: int, case: str) -> EvenOddAuxiliaries:
    """The sums of _aux_rows in Q(zeta_m): q = zeta_{6N}^j, w = q^N for "even",
    q = zeta_{3(2N-1)}^j, w = -q^{2(2N-1)} for "odd"."""
    _require_root("N", N, j, _aux_order(N, case))
    m, rows = _aux_rows(N, case)
    sums = {name: _field_sum(m, terms, j).value() for name, terms in rows.items()}
    if case == "odd":
        omega = -CycloElem.root_power(m, 2 * (2 * N - 1) * j)
        return EvenOddAuxiliaries(b1=None, b2=None, b3=None, omega=omega, **sums)
    return EvenOddAuxiliaries(omega=CycloElem.root_power(m, j * N), **sums)


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
    The witness lists every failing property, each with its sum.
    """
    _require_root("N", N, j, _aux_order(N, case))
    params = {"N": N, "j": j, "even": 1 if case == "even" else 0}

    def witness() -> Optional[str]:
        failures = list(_orbit_failures(_aux_lists, (N, case), j))
        if case == "odd" and not multiset_identity_holds(N):
            failures.append("multiset identity failed")
        return "; ".join(failures) if failures else None

    return run_check("aux", params, witness)


def _aux_lists(N: int, case: str) -> tuple[int, _Named]:
    """m and each property of the auxiliary sums as (label, terms, target),
    the sums read from _aux_rows."""
    m, rows = _aux_rows(N, case)
    if case == "even":
        props = [("B2 != N/2", rows["b2"], Fraction(N, 2))]
        props.append(("B1+B3 != N", rows["b1"] + rows["b3"], N))
        for i in (1, 2, 3):
            pair = rows[f"a{i}"] + rows[f"a{7 - i}"]
            props.append((f"A{i}+A{7 - i} != N-1", pair, N - 1))
        return m, props
    weights = {"a1": 1, "a3": 1, "a4": -1, "a5": -2, "a6": 1}
    rel = [(w, 0, s, t) for a, w in weights.items() for _, _, s, t in rows[a]]
    a = 2 * (2 * N - 1)  # w = -q^a
    sum3: list[_Term] = []
    sum4: list[_Term] = []
    for k in range(1, N):
        sum3 += [
            # q^k (1 - q^k) / (1 + q^{3k})
            (1, k, 3 * k, -1),
            (-1, 2 * k, 3 * k, -1),
            # 3 w q^k (1 - w q^k) / (1 - q^{3k}), w q^k = -q^{a+k}
            (-3, a + k, 3 * k, 1),
            (-3, 2 * (a + k), 3 * k, 1),
            # - w^2 q^k (1 - w^2 q^k) / (1 + q^{3k}), w^2 q^k = q^{2a+k}
            (-1, 2 * a + k, 3 * k, -1),
            (1, 4 * a + 2 * k, 3 * k, -1),
        ]
        # q^k (1 + w q^{3k})(1 - w q^k) / (1 - q^{6k})
        sum4 += [(1, k, 6 * k, 1), (1, a + 2 * k, 6 * k, 1)]
        sum4 += [(-1, a + 4 * k, 6 * k, 1), (-1, 2 * a + 5 * k, 6 * k, 1)]
    sides = [(1, 0, -2 * k, 1) for k in range(1, N)]
    sides += [(1, 0, -(2 * k - 1), 1) for k in range(1, N)]
    sides += [(-1, 0, -k, 1) for k in range(1, 2 * N - 1)]
    return m, [
        ("A-relation residue", rel, 0),
        ("three-term reformulation residue", sum3, 0),
        ("product-form residue", sum4, 0),
        ("two-sided sum residue", sides, 0),
    ]


# ---------------------------------------------------------------------------
# partial fraction decompositions over Q(zeta_6)

_PFD_SEEDS = (Fraction(2), Fraction(1, 3), Fraction(5, 7))
_PFD_POINTS = 20


def _pfd_points(points: int) -> Iterator[Fraction]:
    """The first `points` of 2, 1/3, 5/7 and then h/p, p/h, -h/p for
    coprime 1 <= p < h, h = 2, 3, ... (without the three seeds again);
    all distinct, and none of them 0 or +-1."""
    rest = (
        t
        for h in count(2)
        for p in range(1, h)
        if gcd(p, h) == 1
        for t in (Fraction(h, p), Fraction(p, h), Fraction(-h, p))
        if t not in _PFD_SEEDS
    )
    return islice(chain(_PFD_SEEDS, rest), points)


def _pfd_terms(kind: str, x: Fraction) -> list[_Term]:
    """lhs - rhs of one identity at the rational point x, as terms in
    w = zeta_6: each 1/(1 -+ w^s x) is a term with t = +-x."""
    pfd3 = [(1, 0, 0, x), (-1, 1, 2, x), (1, 2, 1, -x)]
    if kind == "pfd6":
        lhs = 6 * x / (1 - x**6)
        rhs = pfd3 + [(-1, 0, 0, -x), (1, 1, 2, -x), (-1, 2, 1, x)]
    elif kind == "pfd3":
        lhs, rhs = 3 * x / (1 - x**3), pfd3
    else:
        lhs = 3 * x * (1 - x) / (1 + x**3)
        rhs = [(-2, 0, 0, -x), (1, 0, 1, x), (1, 0, 2, -x)]
    return [(lhs, 0, 0, 0)] + [(-c, e, s, t) for c, e, s, t in rhs]


def verify_pfd(kind: str) -> VerificationReport:
    """Exact partial-fraction identities over Q(zeta_6), with w = zeta_6,
    checked at _PFD_POINTS rational arguments away from all poles:

        pfd6:  6x/(1-x^6) = 1/(1-x) - w/(1-w^2 x) + w^2/(1+w x)
                            - 1/(1+x) + w/(1+w^2 x) - w^2/(1-w x)
        pfd3:  3x/(1-x^3) = 1/(1-x) - w/(1-w^2 x) + w^2/(1+w x)
        cube:  3x(1-x)/(1+x^3) = -2/(1+x) + 1/(1-w x) + 1/(1+w^2 x)

    (the residues of x(1-x)/(1+x^3) at -1, w^-1, -w^-2 are -2/3, 1/3 and
    1/3, so the cube identity carries the same normalising factor as the
    other two).  Each 1/(1 - t w^s) is a term with t = +-x.  Twenty points
    exceed every degree bound here, so agreement certifies the
    rational-function identity, not just a sample of it.
    """
    if kind not in ("pfd3", "pfd6", "cube"):
        raise ValueError("kind must be one of pfd3, pfd6, cube")

    def witness() -> Optional[str]:
        for x in _pfd_points(_PFD_POINTS):
            residue = _field_witness(6, _pfd_terms(kind, x))
            if residue is not None:
                return f"disagreement at x = {x}: {residue}"
        return None

    kind_code = {"pfd3": 3, "pfd6": 6, "cube": 0}[kind]
    return run_check("pfd", {"kind": kind_code, "points": _PFD_POINTS}, witness)


# ---------------------------------------------------------------------------
# power-series certification of the rearrangement identity


# A side of the identity as a list of terms c * w^e / (1 - t * w^s), with
# t = +-1, e >= 0, s >= 1, or t = 0 for the monomial c * w^e (s = 0); the
# tests check them against the Fraction oracles _mid_lhs / _mid_rhs.


def _mid_lhs_terms(n: int) -> list[_Term]:
    """The central pair of sums at q = w^2."""
    return [(c, 2 * e, 2 * s, t) for c, e, s, t in _chain_sums(3 * n)]


def _mid_rhs_terms(n: int) -> list[_Term]:
    """The rearranged right side at q = w^2: the shared terms, and the sum of
    1/(1 - q^(3k-1)) over k <= n, which main3n-new writes as (n/3)(1 - q^n)."""
    return _rearranged_terms(n) + [(1, 0, 2 * (3 * k - 1), 1) for k in range(1, n + 1)]


def mid_degree_bound(n: int) -> int:
    """Bound on deg P, P = (lhs - rhs) * Q and Q the product of every
    term's denominator 1 - t w^s on both sides: the sum of all s plus the
    largest of 0 and every e - s (c w^e Q / (1 - t w^s) has degree
    e - s + deg Q)."""
    terms = _mid_lhs_terms(n) + _mid_rhs_terms(n)
    return sum(s for _, _, s, _ in terms) + max([0] + [e - s for _, e, s, _ in terms])


def verify_mid_identity(n: int) -> VerificationReport:
    """Certify the rearrangement identity behind main3n-new as an identity
    of rational functions in w, by the Taylor series of lhs - rhs.

    Every term is c * w^e / (1 - t w^s) with s >= 1, or a monomial
    c * w^e (t = 0), so the common denominator Q (the product of all
    1 - t w^s) has Q(0) = 1 and is a unit in Q[[w]], and the numerator
    P = (lhs - rhs) * Q has degree at most B = mid_degree_bound(n).  Hence
    P = 0 exactly when the series of lhs - rhs vanishes through w^B
    (Stanley, Enumerative Combinatorics I, section 4.1).  Each term adds
    c * t^i at position e + i*s, a monomial c at e only; the sides are
    scaled by the lcm of the coefficient denominators, so the B + 1
    coefficients are integers.  The witness is the lowest nonzero one.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    size = mid_degree_bound(n) + 1

    def witness() -> Optional[str]:
        rhs = [(-c, e, s, t) for c, e, s, t in _mid_rhs_terms(n)]
        terms = _mid_lhs_terms(n) + rhs
        scale = math.lcm(*(c.denominator for c, _, _, _ in terms))
        series = [0] * size
        for c, e, s, t in terms:
            c = c.numerator * (scale // c.denominator)
            for i, pos in enumerate(range(e, size, s) if t else (e,)):
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

        sum_{k=1}^{m} 1/(1 - z^{-1} a^k) = m / (1 - z^{-m}),

    each left term being c * x^e / (1 - t x^s) with t = 1/z.
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
        terms = [(1, 0, k, zinv) for k in range(1, m + 1)]
        terms.append((-m / (1 - zinv**m), 0, 0, 0))
        return _field_witness(m, terms)

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


def _sawtooth_rhs(N: int, f: int) -> list[_Term]:
    """-1/(2N-1) * sum_{u<2N-1} u q^{uf} as monomial terms."""
    return [(Fraction(-u, 2 * N - 1), u * f, 0, 0) for u in range(2 * N - 1)]


def verify_sawtooth(N: int, j: int, k: int) -> VerificationReport:
    """The finite Fourier expansion, at q = zeta_{3(2N-1)}^j and k not
    divisible by 2N-1:

        1/(1 - q^{6k}) = -1/(2N-1) * sum_{u=0}^{2N-2} u q^{6uk}.

    The right side R passes when (1 - q^{6k}) R - 1, a list of monomials,
    is zero: in a field that holds exactly when R is the inverse, and no
    inverse is built from the expansion.  A failure renders lhs - rhs as
    one term list, the left side inverted by its closed form.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    m = 6 * N - 3
    _require_root("N", N, j, m)
    if k % (2 * N - 1) == 0:
        raise ValueError("k must not be divisible by 2N-1")
    f6 = 6 * k % m
    assert f6 != 0, "q^{6k} = 1 despite the precondition"

    def witness() -> Optional[str]:
        rhs = _sawtooth_rhs(N, f6)
        product = rhs + [(-c, e + f6, s, t) for c, e, s, t in rhs] + [(-1, 0, 0, 0)]
        if _field_sum(m, product, j).is_zero():
            return None
        diff = [(1, 0, f6, 1)] + [(-c, e, s, t) for c, e, s, t in rhs]
        return _field_witness(m, diff, j)

    return run_check("sawtooth", {"N": N, "j": j, "k": k}, witness)


# ---------------------------------------------------------------------------
# orbit sweeps


def galois_orbit(m: int) -> list[int]:
    """All admissible j for a primitive m-th root context: 1 <= j < m with
    gcd(j, m) = 1 (j = 1 when m = 1).  An m above sys.maxsize raises
    OverflowError, since no list of its units could be held."""
    if m > sys.maxsize:
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    if m == 1:
        return [1]
    return [j for j in range(1, m) if gcd(j, m) == 1]
