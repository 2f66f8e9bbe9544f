"""An independent oracle, in sympy, for the suites that the library sums
once per Galois orbit (main3n, even, odd, aux), for the main congruence
mod Phi_n^2 (main-phi2) and for the q-binomial congruences (lucas,
central-binom, row-binom).

Each identity is written here from its statement, as lists of terms
c q^e / (1 - t q^s) with a rational target, and computed by sympy alone:
at q = x^j a term is c x^(je) times invert(1 - t x^(js), Phi_m), reduced
mod Phi_m; the Gaussian binomials come from q-Pascal, and the q-Catalan
sum and each q-binomial congruence are reduced by rem mod cyclotomic_poly(n)^e.
It shares no arithmetic with the library's group-algebra sums,
conjugations, folded residues or evaluations at zeta_n + eps.  The tests
check that the oracle's verdict agrees with the library's, and that both
reject a perturbed identity: an aux-even target shifted by 1, a rational
offset of 1/10^13 on a field list, q^n - 1 added to the main-phi2 left
side or to the central-binom right side (Phi_n divides it once), C(a, c) + 1
as the lucas scalar where [b, d] != 0, and a doubled row-binom scalar.

Sizes: main3n for n <= 8; even, odd and aux for N <= 4, each at j = 1 and
at the largest unit j < m; main-phi2 for 3 | n <= 15; lucas for the
distinct tuples of the --n-max 6 sweep (n <= 6, so [N, K] with N <= 29);
central-binom and row-binom for n <= 12, every k.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
import sympy

from qcatalan import cli, congruence, rootid
from qcatalan.congruence import (
    verify_central_qbinom_congruence,
    verify_lucas_qbinom,
    verify_main_theorem,
    verify_row_qbinom_congruence,
)
from qcatalan.cyclotomic import _orbit_values
from qcatalan.ring import Poly
from qcatalan.rootid import (
    verify_aux_properties,
    verify_even_case,
    verify_main3n,
    verify_odd_case,
)

from test_congruence import _add_qn_minus_1, _change_rhs, _double_the_scalar

x = sympy.symbols("x")
OFFSET = Fraction(1, 10**13)


def _rational(c) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def _roots(m: int) -> tuple[int, int]:
    """j = 1 and the largest unit j < m."""
    return 1, max(j for j in range(1, m) if gcd(j, m) == 1)


def _monomial(c, k: int) -> sympy.Poly:
    """c x^k over QQ."""
    return sympy.Poly.from_dict({(k,): _rational(c)}, x, domain=sympy.QQ)


@lru_cache(maxsize=1024)
def _phi(m: int) -> sympy.Poly:
    return sympy.Poly(sympy.cyclotomic_poly(m, x), x, domain=sympy.QQ)


@lru_cache(maxsize=1024)
def _inverse(m: int, k: int, t) -> sympy.Poly:
    """invert(1 - t x^k, Phi_m)."""
    return sympy.invert(_monomial(1, 0) - _monomial(t, k), _phi(m))


def _residue(m: int, j: int, terms, target) -> sympy.Poly:
    """sum c q^e / (1 - t q^s) - target at q = x^j, reduced mod Phi_m."""
    total = _monomial(-target, 0)
    for c, e, s, t in terms:
        term = _monomial(c, j * e % m)
        if t:
            term = term * _inverse(m, j * s % m, t)
        total = (total + term).rem(_phi(m))
    return total


# ---------------------------------------------------------------------------
# the identities, each as (m, [(label, terms, target)])


def _main3n(n):
    """sum_{k<=n} (-1)^k q^{k(3k-1)/2} / (1 - q^{3k-1})
    + sum_{k<n} (-1)^k q^{k(3k+5)/2} / (1 - q^{3k}) = 1/3 + (3n+1)/6 q^{2n}
    at q a primitive 3n-th root of unity."""
    terms = [((-1) ** k, k * (3 * k - 1) // 2, 3 * k - 1, 1) for k in range(1, n + 1)]
    terms += [((-1) ** k, k * (3 * k + 5) // 2, 3 * k, 1) for k in range(1, n)]
    terms.append((Fraction(-(3 * n + 1), 6), 2 * n, 0, 0))
    return 3 * n, [("identity", terms, Fraction(1, 3))]


def _even(N):
    """The display and, with w = q^N, the core identity of n = 2N at a
    primitive 6N-th root q."""
    shared = [(1, 2 * N + k, 6 * k, 1) for k in range(1, N)]  # q^{2N} q^k / (1 - q^{6k})
    shared += [(1, 2 * k - 1, 6 * k - 3, 1) for k in range(1, N + 1)]
    shared += [(-1, 0, 3 * k - 2, 1) for k in range(1, N + 1)]
    # + (2N/3)(1 - q^{2N}) - N = 1/3 - (N + 1/6) q^N
    display = shared + [(Fraction(-2 * N, 3), 2 * N, 0, 0), (Fraction(6 * N + 1, 6), N, 0, 0)]
    display_target = Fraction(1, 3) + N - Fraction(2 * N, 3)
    # w^2 = q^{2N}: w^2 sum q^k/(1 - q^{6k}) + ... = -(N/3)(1 + w) + 1/3 - w/6
    core = shared + [(Fraction(2 * N + 1, 6), N, 0, 0)]
    return 6 * N, [("display", display, display_target), ("core", core, Fraction(1 - N, 3))]


def _odd(N):
    """The display and, with w = -q^{2(2N-1)}, the core identity of
    n = 2N - 1 at a primitive 3(2N-1)-th root q."""
    n = 2 * N - 1
    shared = [(1, n + k, 6 * k, 1) for k in range(1, N)]  # q^n q^k / (1 - q^{6k})
    shared += [(1, 2 * k, 6 * k, 1) for k in range(1, N)]
    shared += [(-1, 0, 3 * k - 2, 1) for k in range(1, N + 1)]
    # + (n/3)(1 - q^n) - (N - 1) = 1/3 + (N - 1/3) q^{2n}
    display = shared + [(Fraction(-n, 3), n, 0, 0), (Fraction(1, 3) - N, 2 * n, 0, 0)]
    display_target = Fraction(1, 3) + (N - 1) - Fraction(n, 3)
    # w^2 = q^{4n}: w^2 sum q^k/(1 - q^{6k}) + ... = -(N/3)(1 + w)
    core = [(1, 4 * n + k, 6 * k, 1) for k in range(1, N)] + shared[N - 1:]
    core.append((Fraction(-N, 3), 2 * n, 0, 0))
    return 3 * n, [("display", display, display_target), ("core", core, Fraction(-N, 3))]


def _aux(N, case):
    """The auxiliary sums with w = q^N (even, m = 6N) or w = -q^{2(2N-1)}
    (odd, m = 3(2N-1)): A_l = sum_{k<N} 1/(1 - e w^i q^k) for
    (e, i) = (1, 0), (1, 1), (1, 2), (-1, 0), (-1, 1), (-1, 2), and in the
    even branch B1, B2, B3 = sum_{k<=N} 1/(1 - q^{2k-1}), 1/(1 - w^2 q^{2k-1}),
    1/(1 + w q^{2k-1}).  Even: B2 = N/2, B1 + B3 = N and A_l + A_{7-l} = N - 1;
    odd: A1 + A3 - A4 - 2 A5 + A6 = 0."""
    if case == "even":
        m, sign, a = 6 * N, 1, N
    else:
        m, sign, a = 6 * N - 3, -1, 2 * (2 * N - 1)

    def recip(e, i, exponents):  # sum 1/(1 - e w^i q^h), w^i = sign^i q^(a i)
        return [(1, 0, a * i + h, e * sign**i) for h in exponents]

    ks = range(1, N)
    A = [recip(e, i, ks) for e in (1, -1) for i in (0, 1, 2)]
    if case == "odd":
        weights = (1, 0, 1, -1, -2, 1)
        relation = [(w * c, e, s, t) for w, row in zip(weights, A) if w for c, e, s, t in row]
        return m, [("A-relation", relation, 0)]
    odd_ks = [2 * k - 1 for k in range(1, N + 1)]
    b1, b2, b3 = recip(1, 0, odd_ks), recip(1, 2, odd_ks), recip(-1, 1, odd_ks)
    props = [("B2", b2, Fraction(N, 2)), ("B1+B3", b1 + b3, N)]
    props += [(f"A{i}+A{7 - i}", A[i - 1] + A[6 - i], N - 1) for i in (1, 2, 3)]
    return m, props


# family: (oracle lists, library builder, library check, keys)
FIELD = {
    "main3n": (_main3n, "_main3n_lists", verify_main3n, [(n,) for n in range(1, 9)]),
    "even": (_even, "_even_lists", verify_even_case, [(N,) for N in range(1, 5)]),
    "odd": (_odd, "_odd_lists", verify_odd_case, [(N,) for N in range(1, 5)]),
    "aux-even": (_aux, "_aux_lists", verify_aux_properties, [(N, "even") for N in range(1, 5)]),
    "aux-odd": (_aux, "_aux_lists", verify_aux_properties, [(N, "odd") for N in range(1, 5)]),
}


def _library(check, key, j):
    """The library's report at q = zeta_m^j: check(n, j) or check(N, j, case)."""
    return check(key[0], j, *key[1:])


def _offset_first(named):
    """The lists, with the rational OFFSET added to the first one."""
    (label, terms, target), rest = named[0], named[1:]
    return [(label, terms + [(OFFSET, 0, 0, 0)], target)] + rest


def _shift_target(i):
    """A change of the lists that adds 1 to the i-th target."""

    def change(named):
        named = list(named)
        label, terms, target = named[i]
        named[i] = (label, terms, target + 1)
        return named

    return change


@pytest.fixture
def patch_builder(monkeypatch):
    """patch(name, change) replaces the rootid builder `name` by one whose
    lists are change(lists), with the orbit memo emptied before and
    after, so no check reads a sum of another builder."""

    def patch(name, change):
        real = getattr(rootid, name)

        def changed(*key):
            m, named = real(*key)
            return m, change(named)

        _orbit_values.cache_clear()
        monkeypatch.setattr(rootid, name, changed)

    _orbit_values.cache_clear()
    yield patch
    _orbit_values.cache_clear()


def _oracle_holds(m, j, named):
    return all(_residue(m, j, terms, target).is_zero for _, terms, target in named)


@pytest.mark.parametrize("family", FIELD)
def test_field_suites_agree_with_the_oracle(family, patch_builder, monkeypatch):
    # both sides pass every check; both reject each perturbation of it
    identity, builder, check, keys = FIELD[family]
    perturbations = [_offset_first]
    if family == "aux-even":
        perturbations += [_shift_target(i) for i in range(5)]
    for key in keys:
        m, named = identity(*key)
        for j in _roots(m):
            assert _oracle_holds(m, j, named), (family, key, j)
            assert _library(check, key, j).passed, (family, key, j)
            for change in perturbations:
                assert not _oracle_holds(m, j, change(named)), (family, key, j)
                patch_builder(builder, change)
                assert _library(check, key, j).status == "fail", (family, key, j)
                monkeypatch.undo()


TOP = 29  # the largest N of a Gaussian binomial [N, K] read below


@lru_cache(maxsize=1)
def _qbinom_rows(top: int) -> list[list[sympy.Poly]]:
    """rows[n][k] = [n, k] for k <= n <= top, by q-Pascal:
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    one = sympy.Poly(1, x)
    rows = [[one]]
    for n in range(1, top + 1):
        prev = rows[-1] + [sympy.Poly(0, x)]
        rows.append([one] + [prev[k - 1] + prev[k] * sympy.Poly(x**k, x) for k in range(1, n + 1)])
    return rows


def _main_phi2_residue(n: int, extra: sympy.Poly, rows) -> sympy.Poly:
    """sum_{k<n} q^k C_k + extra - q^{n(2n+1)/3} - (1/3)(q^n - 1)(2 + (n+1) q^{2n/3})
    mod Phi_n^2, with C_k = [2k, k] - q [2k, k+1] read from rows."""
    lhs = extra
    for k in range(n):
        upper = rows[2 * k][k + 1] if k else sympy.Poly(0, x)
        lhs += sympy.Poly(x**k, x) * (rows[2 * k][k] - sympy.Poly(x, x) * upper)
    rhs = x ** (n * (2 * n + 1) // 3) + sympy.Rational(1, 3) * (x**n - 1) * (
        2 + (n + 1) * x ** (2 * n // 3)
    )
    phi2 = sympy.Poly(sympy.cyclotomic_poly(n, x) ** 2, x, domain=sympy.QQ)
    return sympy.rem(lhs.set_domain(sympy.QQ) - sympy.Poly(rhs, x, domain=sympy.QQ), phi2)


def test_main_phi2_agrees_with_the_oracle(monkeypatch):
    # both sides pass for 3 | n <= 15; both reject q^n - 1 added to the left
    # side, which Phi_n divides once (x^n - 1 is squarefree)
    real, rows = congruence.catalan_residue, _qbinom_rows(TOP)
    for n in range(3, 16, 3):
        assert _main_phi2_residue(n, sympy.Poly(0, x), rows).is_zero, n
        assert verify_main_theorem(n).passed, n
        assert not _main_phi2_residue(n, sympy.Poly(x**n - 1, x), rows).is_zero, n
        bumped = lambda m, n=n: real(m) + Poly.monomial(1, n) - 1
        monkeypatch.setattr(congruence, "catalan_residue", bumped)
        assert verify_main_theorem(n).status == "fail", n
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# the q-binomial congruences


def _binom(top: int, k: int) -> sympy.Poly:
    """[top, k] over QQ, 0 outside 0 <= k <= top."""
    if not 0 <= k <= top:
        return sympy.Poly(0, x, domain=sympy.QQ)
    return _qbinom_rows(TOP)[top][k].set_domain(sympy.QQ)


def _vanishes(poly: sympy.Poly, n: int, e: int) -> bool:
    """Whether poly = 0 mod cyclotomic_poly(n)^e."""
    return sympy.rem(poly, _phi(n) ** e).is_zero


def _lucas_holds(a, b, c, d, n, scale=comb) -> bool:
    lhs = _binom(a * n + b, c * n + d) - _binom(b, d) * scale(a, c)
    return _vanishes(lhs, n, 1)


def _row_holds(n, k, change=lambda n, rhs: rhs) -> bool:
    rhs = change(n, [((-1) ** (k - 1), 0)])
    lhs = _binom(n - 1, k - 1) * _monomial(1, k * (k - 1) // 2 % n)
    return _vanishes(lhs - sum((_monomial(c, t) for c, t in rhs), _monomial(0, 0)), n, 1)


def _central_holds(n, k, change=lambda n, rhs: rhs) -> bool:
    t, c = -(k * (k - 1) // 2) % n, 2 * (-1) ** k
    rhs = change(n, [(c, n + t), (-c, t)])
    lhs = _binom(2 * n, n + k) * (_monomial(1, 0) - _monomial(1, k))
    return _vanishes(lhs - sum((_monomial(c, t) for c, t in rhs), _monomial(0, 0)), n, 2)


def test_lucas_agrees_with_the_oracle(monkeypatch):
    # every distinct tuple of the --n-max 6 sweep passes on both sides; with
    # C(a, c) + 1 both reject each tuple whose [b, d] is not 0, and both
    # still pass the others, where the two sides are 0
    config = cli.RunConfig(suites=["lucas"], n_max=6)
    params = [p for _, p in cli.generate_tasks(config, "lucas")]
    tuples = sorted({(p["a"], p["b"], p["c"], p["d"], p["n"]) for p in params})
    bumped = lambda a, c: comb(a, c) + 1
    for a, b, c, d, n in tuples:
        assert _lucas_holds(a, b, c, d, n), (a, b, c, d, n)
        assert verify_lucas_qbinom(a, b, c, d, n).passed, (a, b, c, d, n)
    monkeypatch.setattr(congruence, "comb", bumped)
    for a, b, c, d, n in tuples:
        holds = _lucas_holds(a, b, c, d, n, bumped)
        assert holds == (d > b), (a, b, c, d, n)
        assert verify_lucas_qbinom(a, b, c, d, n).passed == holds, (a, b, c, d, n)


def test_row_and_central_binom_agree_with_the_oracle(monkeypatch):
    # every n <= 12 and k passes on both sides; a doubled row-binom scalar
    # and q^n - 1 added to the central-binom right side fail on both
    pairs = [(n, k) for n in range(2, 13) for k in range(1, n)]
    for n, k in pairs:
        assert _row_holds(n, k) and verify_row_qbinom_congruence(n, k).passed, (n, k)
        assert _central_holds(n, k) and verify_central_qbinom_congruence(n, k).passed, (n, k)
    for change, holds, verify in (
        (_double_the_scalar, _row_holds, verify_row_qbinom_congruence),
        (_add_qn_minus_1, _central_holds, verify_central_qbinom_congruence),
    ):
        _change_rhs(monkeypatch, change)
        for n, k in pairs:
            assert not holds(n, k, change), (change, n, k)
            assert verify(n, k).status == "fail", (change, n, k)
        monkeypatch.undo()
