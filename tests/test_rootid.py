"""Root-of-unity identity suites."""

import cmath
from fractions import Fraction
from math import gcd

import pytest

from qcatalan.cyclotomic import CycloElem, GroupAlgebraElem, _field_sum, _orbit_values
from qcatalan.rootid import (
    compute_auxiliaries,
    galois_orbit,
    mid_degree_bound,
    multiset_identity_holds,
    verify_aux_properties,
    verify_even_case,
    verify_explicit,
    verify_extan,
    verify_main3n,
    verify_main3n_new,
    verify_mid_identity,
    verify_odd_case,
    verify_pfd,
    verify_sawtooth,
    verify_trig_identity,
)
from qcatalan import rootid
from qcatalan.rootid import _mid_lhs_terms, _mid_rhs_terms


@pytest.fixture
def patch_terms(monkeypatch):
    """monkeypatch.setattr on rootid (a term builder, _aux_rows, ...) that
    empties the orbit memo first, so no check reads a sum that another
    test, or another patch, left there; the memo is emptied again after the
    test, so none of the patched sums outlives it."""

    def patch(name, value):
        _orbit_values.cache_clear()
        monkeypatch.setattr(rootid, name, value)

    _orbit_values.cache_clear()
    yield patch
    _orbit_values.cache_clear()


def test_root_context_validation():
    assert verify_main3n(2, 5).passed and verify_explicit(2, 5).passed
    for verify in (verify_main3n, verify_explicit):
        with pytest.raises(ValueError):
            verify(2, 2)  # gcd(2, 6) > 1
        with pytest.raises(ValueError):
            verify(0, 1)


def test_root_context_primitivity():
    # q^(3n) = 1 and q^t != 1 for 0 < t < 3n
    for (n, j) in ((1, 2), (2, 5), (4, 7)):
        q = CycloElem.root_power(3 * n, j)
        assert q ** (3 * n) == 1
        for t in range(1, 3 * n):
            assert not (q**t - 1).is_zero(), (n, j, t)


def test_main3n_base_case_value():
    # n = 1, j = 1: both sides equal (-1 - 2q)/3 in Q(zeta_3)
    assert verify_main3n(1, 1).passed
    from qcatalan.cyclotomic import _field_sum

    lhs = _field_sum(3, [(-1, 1, 2, 1)])  # -q / (1 - q^2)
    expected = CycloElem(3, [-1, -2], 3)
    assert lhs.value() == expected
    rhs = CycloElem.from_rational(3, Fraction(1, 3)) + CycloElem.root_power(3, 2) * Fraction(4, 6)
    assert rhs == expected


def test_main3n_float_cross_check():
    # independent float evaluation at q = exp(2 pi i / 3)
    q = cmath.exp(2j * cmath.pi / 3)
    lhs = -q / (1 - q**2)
    rhs = 1 / 3 + (4 / 6) * q**2
    assert abs(lhs - rhs) < 1e-12


def test_main3n_examples_and_conjugates():
    assert verify_main3n(2, 1).passed
    assert verify_main3n(2, 5).passed
    with pytest.raises(ValueError):
        verify_main3n(2, 3)


def test_main3n_galois_uniformity():
    for n in range(1, 11):
        outcomes = {verify_main3n(n, j).passed for j in galois_orbit(3 * n)}
        assert outcomes == {True}, n


def test_explicit_examples():
    # n = 1, j = 1: 1/(1 - q^2) = (1/3)(1 - q) at q = zeta_3
    assert verify_explicit(1, 1).passed
    assert verify_explicit(2, 1).passed
    assert verify_explicit(4, 5).passed
    lhs = (CycloElem.one(3) - CycloElem.root_power(3, 2)).inv()
    assert lhs == (CycloElem.one(3) - CycloElem.root_power(3, 1)) * Fraction(1, 3)


def test_main3n_new_examples():
    assert verify_main3n_new(2, 1).passed
    assert verify_main3n_new(3, 1).passed
    assert verify_main3n_new(4, 7).passed
    # even j is admissible when n is odd; the square root lives at x^j
    assert verify_main3n_new(1, 2).passed
    assert verify_main3n_new(5, 2).passed


def test_even_case():
    assert verify_even_case(1, 1).passed  # empty first sum
    assert verify_even_case(2, 1).passed
    assert verify_even_case(3, 5).passed
    with pytest.raises(ValueError):
        verify_even_case(2, 4)


def test_odd_case():
    assert verify_odd_case(1, 1).passed  # first two sums empty
    assert verify_odd_case(2, 1).passed
    assert verify_odd_case(4, 2).passed
    with pytest.raises(ValueError):
        verify_odd_case(3, 5)  # gcd(5, 15) > 1


def test_even_odd_sweeps():
    for N in range(1, 8):
        for j in galois_orbit(6 * N):
            assert verify_even_case(N, j).passed, (N, j)
        for j in galois_orbit(6 * N - 3):
            assert verify_odd_case(N, j).passed, (N, j)


def test_auxiliaries_even():
    aux = compute_auxiliaries(2, 1, "even")
    # A_1 = 1/(1 - q) at q = zeta_12, a single exact element
    q = CycloElem.root_power(12, 1)
    assert aux.a1 == (CycloElem.one(12) - q).inv()
    aux3 = compute_auxiliaries(3, 1, "even")
    assert aux3.b2 == Fraction(3, 2)
    assert aux3.b1 + aux3.b3 == 3
    aux4 = compute_auxiliaries(4, 1, "even")
    assert aux4.a1 + aux4.a6 == 3
    assert aux4.a2 + aux4.a5 == 3
    assert aux4.a3 + aux4.a4 == 3
    # omega = q^N satisfies 1 - w + w^2 = 0 and w^3 = -1
    w = aux4.omega
    assert (1 - w + w * w).is_zero()
    assert w**3 == -1


def test_auxiliaries_odd():
    aux = compute_auxiliaries(3, 1, "odd")
    assert aux.b1 is None and aux.b2 is None and aux.b3 is None
    rel = aux.a1 + aux.a3 - aux.a4 - aux.a5 - aux.a5 + aux.a6
    assert rel.is_zero()
    w = aux.omega
    assert (1 - w + w * w).is_zero()
    assert w * w == CycloElem.root_power(15, 5)  # w^2 = q^(2N-1)
    with pytest.raises(ValueError):
        compute_auxiliaries(3, 1, "both")


def test_multiset_identity():
    assert multiset_identity_holds(3)  # {1,2} u {4,3} == {2,4} u {3,1}
    for N in range(1, 40):
        assert multiset_identity_holds(N)


def test_aux_properties_sweep():
    for N in range(1, 8):
        for j in galois_orbit(6 * N):
            assert verify_aux_properties(N, j, "even").passed, (N, j)
        for j in galois_orbit(6 * N - 3):
            assert verify_aux_properties(N, j, "odd").passed, (N, j)
    with pytest.raises(ValueError):
        verify_aux_properties(2, 1, "weird")


def test_pfd():
    for kind in ("pfd3", "pfd6", "cube"):
        rep = verify_pfd(kind)
        assert rep.passed, rep.witness
    with pytest.raises(ValueError):
        verify_pfd("pfd9")


def test_pfd_point_count():
    for count in range(1, 26):
        points = list(rootid._pfd_points(count))
        assert len(points) == count and len(set(points)) == count, count
        assert not set(points) & {0, 1, -1}, count
    # the 20 points of every pfd check, as the report stream has always used them
    assert [str(x) for x in rootid._pfd_points(rootid._PFD_POINTS)] == [
        "2", "1/3", "5/7", "1/2", "-2", "3", "-3", "3/2", "2/3", "-3/2",
        "4", "1/4", "-4", "4/3", "3/4", "-4/3", "5", "1/5", "-5", "5/2",
    ]


def test_parameters_below_one_are_rejected_up_front():
    calls = [
        (lambda: verify_main3n_new(0, 1), "need n >= 1"),
        (lambda: verify_even_case(0, 1), "need N >= 1"),
        (lambda: verify_odd_case(0, 1), "need N >= 1"),
        (lambda: verify_aux_properties(0, 1, "even"), "need N >= 1"),
        (lambda: verify_aux_properties(0, 1, "odd"), "need N >= 1"),
        (lambda: compute_auxiliaries(0, 1, "even"), "need N >= 1"),
        (lambda: verify_main3n(0, 1), "need n >= 1"),
        (lambda: verify_explicit(-1, 1), "need n >= 1"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()


def _term_value(m, term):
    """c * x^e / (1 - t x^s) in CycloElem arithmetic (norm-product inverse)."""
    c, e, s, t = term
    value = CycloElem.root_power(m, e) * c
    if t:
        value = value * (CycloElem.one(m) - CycloElem.root_power(m, s) * t).inv()
    return value


def test_dropped_term_is_caught_with_exact_witness(patch_terms):
    # every field suite, with the first term of a list it sums left out,
    # fails with minus that term as its residue, under its own prefix; the
    # orbit suites lose it in their builder, the others in _field_sum
    real, dropped = rootid._field_sum, []

    def drop_first(m, terms, j=1):
        c, e, s, t = terms[0]
        dropped.append((m, (c, e * j, s * j, t)))  # the term at q = x^j
        return real(m, terms[1:], j)

    def dropping(builder, prefixes, j):
        # the builder, with the first term dropped from each list whose
        # witness would carry one of the prefixes
        def wrapper(*key):
            m, named = builder(*key)
            out = []
            for label, terms, target in named:
                if (f"{label}: {{}}" if label else "{}") in prefixes:
                    c, e, s, t = terms[0]
                    dropped.append((m, (c, e * j, s * j, t)))  # at q = x^j
                    terms = terms[1:]
                out.append((label, terms, target))
            return m, out

        return wrapper

    pfd = "disagreement at x = 2: {}"
    cases = [
        (lambda: verify_main3n(3, 2), ["{}"], "_main3n_lists", 2),
        (lambda: verify_explicit(4, 5), ["{}"], "_explicit_lists", 5),
        (lambda: verify_main3n_new(4, 7), ["{}"], None, 7),
        (lambda: verify_even_case(3, 5), ["display residue: {}"], "_even_lists", 5),
        (lambda: verify_odd_case(3, 2), ["display residue: {}"], "_odd_lists", 2),
        (
            lambda: verify_aux_properties(3, 2, "odd"),
            [
                "three-term reformulation residue: {}",
                "product-form residue: {}",
                "two-sided sum residue: {}",
            ],
            "_aux_lists",
            2,
        ),
        (lambda: verify_extan(12, Fraction(7, 3)), ["{}"], None, 1),
        (lambda: verify_extan(5, Fraction(-2)), ["{}"], None, 1),
        (lambda: verify_pfd("pfd3"), [pfd], None, 1),
        (lambda: verify_pfd("pfd6"), [pfd], None, 1),
        (lambda: verify_pfd("cube"), [pfd], None, 1),
    ]
    builders = {name: getattr(rootid, name) for _, _, name, _ in cases if name}
    for run, prefixes, builder, j in cases:
        # the orbit suites' _orbit_sums reads rootid._field_sum too
        patch_terms("_field_sum", real if builder else drop_first)
        if builder:
            patch_terms(builder, dropping(builders[builder], prefixes, j))
        dropped.clear()
        rep = run()
        assert rep.status == "fail", rep.params
        assert len(dropped) == len(prefixes), rep.params
        parts = [
            prefix.format((-_term_value(m, term)).render())
            for prefix, (m, term) in zip(prefixes, dropped)
        ]
        assert rep.witness == "; ".join(parts), rep.params


def test_each_suite_hands_its_root_exponent_to_the_field_sum(monkeypatch, patch_terms):
    # the suites write their terms in q and apply q = x^j in one place: the
    # orbit suites sum at zeta_m (j = 1) and map the sum by conjugate(j),
    # while main3n-new, sawtooth and compute_auxiliaries hand j to the
    # field sum.  A verdict at a conjugate is the same with j dropped, so
    # only the j that each place receives shows that the witness is
    # rendered at zeta_m^j
    from qcatalan import cyclotomic

    seen = {"sum": [], "conjugate": []}
    real_conjugate = GroupAlgebraElem.conjugate

    def summing(real):
        def wrapper(m, terms, j=1):
            seen["sum"].append(j)
            return real(m, terms, j)

        return wrapper

    def conjugating(self, j):
        seen["conjugate"].append(j)
        return real_conjugate(self, j)

    patch_terms("_field_sum", summing(cyclotomic._field_sum))
    monkeypatch.setattr(GroupAlgebraElem, "conjugate", conjugating)
    cases = [
        (5, lambda j: verify_main3n(4, j), "conjugate"),
        (5, lambda j: verify_explicit(4, j), "conjugate"),
        (7, lambda j: verify_main3n_new(4, j), "sum"),
        (5, lambda j: verify_even_case(3, j), "conjugate"),
        (2, lambda j: verify_odd_case(3, j), "conjugate"),
        (5, lambda j: verify_aux_properties(3, j, "even"), "conjugate"),
        (2, lambda j: verify_aux_properties(3, j, "odd"), "conjugate"),
        (5, lambda j: compute_auxiliaries(3, j, "even"), "sum"),
        (2, lambda j: verify_sawtooth(3, j, 4), "sum"),
    ]
    for j, run, place in cases:
        for calls in seen.values():
            calls.clear()
        result = run(j)
        assert getattr(result, "passed", True), j
        assert seen[place] and set(seen[place]) == {j}, (j, place, seen)
        if place == "conjugate":  # the memo was empty: one sum at zeta_m
            assert seen["sum"] and set(seen["sum"]) == {1}, (j, seen)
        else:
            assert not seen["conjugate"], (j, seen)


def _orbit_keys(top):
    """(builder, key) of every memoised suite for n (or N) <= top."""
    keys = []
    for n in range(1, top + 1):
        keys += [(rootid._main3n_lists, (n,)), (rootid._explicit_lists, (n,))]
        keys += [(rootid._even_lists, (n,)), (rootid._odd_lists, (n,))]
        keys += [(rootid._aux_lists, (n, "even")), (rootid._aux_lists, (n, "odd"))]
    return keys


def test_orbit_sums_map_onto_the_sum_at_each_root(patch_terms):
    # for each memoised suite, every n (or N) <= 10 and every j in its
    # orbit, the memoised value at zeta_m mapped by conjugate(j) is the
    # direct sum at q = zeta_m^j minus the target, entry for entry and in
    # the denominator; with the target added back it is the sum itself
    targets = set()
    for builder, key in _orbit_keys(10):
        m, named = builder(*key)
        sums = _orbit_values(rootid._orbit_sums, builder, *key)
        assert [label for label, _, _ in sums] == [label for label, _, _ in named]
        for j in galois_orbit(m):
            for (label, terms, target), (_, acc, memo_target) in zip(named, sums):
                assert acc.m == m and memo_target == target
                got = acc.conjugate(j)
                want = _field_sum(m, terms + [(-target, 0, 0, 0)], j)
                assert got.vec == want.vec and got.den == want.den, (key, j, label)
                if target:
                    back = got + GroupAlgebraElem.monomial(m, target)
                    assert back.value() == _field_sum(m, terms, j).value(), (key, j)
                    targets.add(target)
    assert len(targets) > 10  # N/2, N and N - 1 for each even N


def test_orbit_memo_is_bounded(monkeypatch, patch_terms):
    # a sweep over more orbits than the memo holds keeps at most maxsize
    # sums: the explicit identity itself at j = 1 for n <= 74, then, so that
    # the sweep to n = 266 (m = 798) stays cheap, each explicit list replaced
    # by a zero sum of two monomials (patched without emptying the memo)
    size = _orbit_values.cache_info().maxsize
    assert size == 256
    real = 74
    for n in range(1, real + 1):
        assert verify_explicit(n, 1).passed, n
    zero = [(1, 0, 0, 0), (-1, 0, 0, 0)]
    monkeypatch.setattr(rootid, "_explicit_lists", lambda n: (3 * n, [("", zero, 0)]))
    for n in range(real + 1, size + 11):
        assert verify_explicit(n, 1).passed, n
    info = _orbit_values.cache_info()
    assert info.misses == size + 10 and info.currsize == size


def test_orbit_suites_go_through_conjugate(monkeypatch, patch_terms):
    # an index map that is not an automorphism of Q[x]/(x^m - 1) in place of
    # x -> x^j fails checks of every memoised suite
    def not_an_automorphism(self, j):
        out = [0] * self.m
        for i, c in enumerate(self.vec):
            out[i * j % (self.m - 1 or 1)] += c
        return GroupAlgebraElem(self.m, out, self.den)

    monkeypatch.setattr(GroupAlgebraElem, "conjugate", not_an_automorphism)
    sweeps = {
        "main3n": lambda n, j: verify_main3n(n, j),
        "even": lambda n, j: verify_even_case(n, j),
        "odd": lambda n, j: verify_odd_case(n, j),
        "aux even": lambda n, j: verify_aux_properties(n, j, "even"),
        "aux odd": lambda n, j: verify_aux_properties(n, j, "odd"),
    }
    orders = {"main3n": 3, "even": 6, "odd": 6, "aux even": 6, "aux odd": 6}
    for name, run in sweeps.items():
        reports = []
        for n in range(2, 6):
            m = orders[name] * n - (3 if "odd" in name else 0)
            reports += [run(n, j) for j in galois_orbit(m)]
        failed = sum(rep.status == "fail" for rep in reports)
        assert failed >= len(reports) // 2, (name, failed, len(reports))


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


def _mid_points(count):
    """count distinct rationals h/p and p/h with gcd(p, h) = 1 and p < h,
    so |w| is never 0 or 1 and no denominator 1 - t w^s vanishes."""
    out, h = [], 2
    while len(out) < count:
        for p in range(1, h):
            if gcd(p, h) == 1:
                out += [Fraction(h, p), Fraction(p, h)]
        h += 1
    return out[:count]


def _side_value(terms, w):
    """A term list evaluated at w in Fraction: sum c w^e / (1 - t w^s)."""
    return sum(c * w**e / (1 - t * w**s) for c, e, s, t in terms)


def _old_mid_degree_bound(n):
    # the closed formula mid_degree_bound had before it was derived from the terms
    db_l = sum(2 * (3 * k - 1) for k in range(1, n + 1)) + sum(6 * k for k in range(1, n))
    extra_l = max(
        [0]
        + [k * (3 * k - 1) - 2 * (3 * k - 1) for k in range(1, n + 1)]
        + [k * (3 * k + 5) - 6 * k for k in range(1, n)]
    )
    db_r = (
        2 * sum(3 * k for k in range(1, n))
        + sum(2 * (3 * k - 1) for k in range(1, n + 1))
        + sum(2 * (3 * k - 2) for k in range(1, (n + 1) // 2 + 1))
    )
    extra_r = max([0] + [k * (3 * n + 2) - 3 * k for k in range(1, n)])
    return max(db_l + extra_l + db_r, db_r + extra_r + db_l)


def test_mid_identity_point_values():
    # n = 2, w = 2 (z = 4): both sides evaluate to the same exact rational
    assert _mid_lhs(2, Fraction(2)) == _mid_rhs(2, Fraction(2))
    assert _mid_lhs(3, Fraction(3, 2)) == _mid_rhs(3, Fraction(3, 2))
    # 200 sample points for n = 5
    points = _mid_points(200)
    assert len(set(points)) == 200
    for w in points:
        assert _mid_lhs(5, w) == _mid_rhs(5, w)
    # w = +-1 are poles of both Fraction sides
    for w in (Fraction(1), Fraction(-1)):
        with pytest.raises(ZeroDivisionError):
            _mid_lhs(3, w)
        with pytest.raises(ZeroDivisionError):
            _mid_rhs(3, w)


def test_mid_integer_sides_match_fraction_oracle():
    for n in range(2, 9):
        lhs, rhs = _mid_lhs_terms(n), _mid_rhs_terms(n)
        for w in _mid_points(300):
            assert _side_value(lhs, w) == _mid_lhs(n, w), (n, w)
            assert _side_value(rhs, w) == _mid_rhs(n, w), (n, w)


def test_mid_degree_bound_matches_closed_formula():
    for n in range(2, 61):
        assert mid_degree_bound(n) == _old_mid_degree_bound(n), n


def _point_certificate(n):
    """The term lists (as rootid holds them) agree at mid_degree_bound(n) + 1
    rational points."""
    lhs, rhs = rootid._mid_lhs_terms(n), rootid._mid_rhs_terms(n)
    points = _mid_points(mid_degree_bound(n) + 1)
    return all(_side_value(lhs, w) == _side_value(rhs, w) for w in points)


def test_mid_series_verdict_matches_point_certificate():
    for n in range(2, 7):
        points = _mid_points(mid_degree_bound(n) + 1)
        assert all(_mid_lhs(n, w) == _mid_rhs(n, w) for w in points), n
        assert verify_mid_identity(n).passed, n


def _perturbations(n):
    """(name, new rhs term list, lowest power of lhs - rhs, its coefficient)."""
    terms = _mid_rhs_terms(n)
    high = mid_degree_bound(n) // 2 + 1
    c, e, s, t = terms[0]  # flipping t changes c t^i at w^(e+i*s) for odd i
    return [
        ("constant + 1", terms + [(1, 0, 0, 0)], 0, Fraction(-1)),
        ("extra term", terms + [(Fraction(1, 2), high, 5, 1)], high, Fraction(-1, 2)),
        ("t flipped", [(c, e, s, -t)] + terms[1:], e + s, 2 * c * t),
    ]


def test_mid_perturbations_are_rejected(monkeypatch):
    for n in (2, 5):
        for name, side, low, coeff in _perturbations(n):
            monkeypatch.setattr(rootid, "_mid_rhs_terms", lambda m, side=side: side)
            assert not _point_certificate(n), (n, name)
            rep = verify_mid_identity(n)
            assert not rep.passed, (n, name)
            assert rep.witness == f"lhs - rhs = {coeff}*w^{low} + O(w^{low + 1})", (n, name)
            assert rep.params["points"] == mid_degree_bound(n) + 1
            monkeypatch.undo()


def test_mid_mismatch_witness(monkeypatch):
    # an off-by-one right side: lhs - rhs = -1 + O(w), the lowest power named
    real = rootid._mid_rhs_terms
    monkeypatch.setattr(rootid, "_mid_rhs_terms", lambda n: real(n) + [(1, 0, 0, 0)])
    for n in (2, 5):
        rep = verify_mid_identity(n)
        assert not rep.passed
        assert rep.witness == "lhs - rhs = -1*w^0 + O(w^1)"


def test_mid_identity_certificates():
    for n in range(2, 7):
        rep = verify_mid_identity(n)
        assert rep.passed, rep.witness
        assert rep.params["points"] == mid_degree_bound(n) + 1
    with pytest.raises(ValueError):
        verify_mid_identity(1)


def test_extan():
    # m = 1: 1/(1 - 1/2) = 2
    assert verify_extan(1, Fraction(2)).passed
    # m = 2, z = 2: 1/(1 + 1/2) + 1/(1 - 1/2) = 8/3
    assert verify_extan(2, Fraction(2)).passed
    assert verify_extan(12, Fraction(7, 3)).passed
    with pytest.raises(ValueError):
        verify_extan(3, Fraction(0))
    with pytest.raises(ValueError):
        verify_extan(3, Fraction(1))
    with pytest.raises(ValueError):
        verify_extan(4, Fraction(-1))


def test_trig():
    assert verify_trig_identity(2, 1e-12).passed
    assert verify_trig_identity(5, 1e-9).passed
    assert verify_trig_identity(100, 1e-8).passed
    with pytest.raises(ValueError):
        verify_trig_identity(1)
    # N=2 collapses to csc(2x) + cot(2x) - cot(x) = 0, an exact identity
    import math

    x = math.pi / 9
    assert abs(1 / math.sin(2 * x) + 1 / math.tan(2 * x) - 1 / math.tan(x)) < 1e-14


def test_trig_rejects_a_tolerance_outside_zero_to_inf(monkeypatch):
    # a tolerance of 0 or below, or nan, would fail the true identity, and
    # inf would pass any sum; each is refused before any check runs
    def unreachable(*args):
        raise AssertionError("check run with a rejected tolerance")

    monkeypatch.setattr(rootid, "run_check", unreachable)
    for tol in (-1, 0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            verify_trig_identity(5, tol)


def test_sawtooth():
    assert verify_sawtooth(2, 1, 1).passed
    assert verify_sawtooth(3, 1, 4).passed
    with pytest.raises(ValueError):
        verify_sawtooth(3, 1, 5)  # 5 = 0 mod 5
    with pytest.raises(ValueError):
        verify_sawtooth(3, 3, 1)  # gcd(3, 15) > 1
    for N in range(2, 7):
        for k in range(1, 2 * N - 1):
            assert verify_sawtooth(N, 1, k).passed, (N, k)
    # k beyond one period still fine as long as 2N-1 does not divide it
    assert verify_sawtooth(3, 2, 7).passed


def test_sawtooth_failure_renders_lhs_minus_rhs(monkeypatch):
    # one coefficient u of the expansion changed: the witness is still
    # 1/(1 - q^{6k}) by the norm product minus the expansion as written
    real = rootid._sawtooth_rhs

    def perturbed(N, f, u=1):
        terms = real(N, f)
        c, e, s, t = terms[u]
        terms[u] = (c + Fraction(2, 7), e, s, t)
        return terms

    monkeypatch.setattr(rootid, "_sawtooth_rhs", perturbed)
    for N, j, k in ((2, 1, 1), (3, 2, 4), (4, 5, 3)):
        m = 6 * N - 3
        f6 = 6 * k * j % m
        lhs = (CycloElem.one(m) - CycloElem.root_power(m, f6)).inv()
        rhs = CycloElem.zero(m)
        for u in range(2 * N - 1):
            c = Fraction(-u, 2 * N - 1) + (Fraction(2, 7) if u == 1 else 0)
            rhs = rhs + CycloElem.root_power(m, u * f6) * c
        rep = verify_sawtooth(N, j, k)
        assert rep.status == "fail" and rep.witness == (lhs - rhs).render(), (N, j, k)


def test_aux_failures_render_the_sums_themselves(patch_terms):
    # a term dropped from one row of the table fails exactly the property
    # that uses it, and the witness renders that sum as compute_auxiliaries
    # reads it from the same table
    real = rootid._aux_rows
    even = [
        ("b2", lambda a: f"B2 != N/2: {a.b2.render()}"),
        ("b1", lambda a: f"B1+B3 != N: {(a.b1 + a.b3).render()}"),
        ("b3", lambda a: f"B1+B3 != N: {(a.b1 + a.b3).render()}"),
        ("a6", lambda a: f"A1+A6 != N-1: {(a.a1 + a.a6).render()}"),
        ("a2", lambda a: f"A2+A5 != N-1: {(a.a2 + a.a5).render()}"),
        ("a4", lambda a: f"A3+A4 != N-1: {(a.a3 + a.a4).render()}"),
    ]
    rel = lambda a: a.a1 + a.a3 - a.a4 - a.a5 - a.a5 + a.a6
    odd = [(row, lambda a: f"A-relation residue: {rel(a).render()}") for row in ("a1", "a5")]
    cases = [(row, "even", w, 4, 5) for row, w in even]
    cases += [(row, "odd", w, 3, 2) for row, w in odd]
    for row, case, want, N, j in cases:

        def dropped(N, case, row=row):
            m, rows = real(N, case)
            rows[row] = rows[row][:-1]
            return m, rows

        patch_terms("_aux_rows", dropped)
        rep = verify_aux_properties(N, j, case)
        assert rep.status == "fail", (row, case)
        assert rep.witness == want(compute_auxiliaries(N, j, case)), (row, case)


def test_passing_checks_reduce_and_invert_nothing(monkeypatch):
    # a passing verdict is one annihilator test: no remainder mod Phi_n^e,
    # no reduction of a group-algebra value, no field product, no
    # norm-product inverse, no Phi built at all, and no CycloField or
    # CycloElem constructed
    from collections import Counter

    from qcatalan import charsum, congruence, cyclotomic, qdsl
    from qcatalan.cyclotomic import CycloField, GroupAlgebraElem

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    reduce = counting("reduce_mod_phi_power", cyclotomic.reduce_mod_phi_power)
    for module in (cyclotomic, congruence):
        monkeypatch.setattr(module, "reduce_mod_phi_power", reduce)
    phi = counting("cyclotomic_poly", cyclotomic.cyclotomic_poly)
    monkeypatch.setattr(cyclotomic, "cyclotomic_poly", phi)
    monkeypatch.setattr(CycloField, "element", counting("element", CycloField.element))
    monkeypatch.setattr(GroupAlgebraElem, "value", counting("value", GroupAlgebraElem.value))
    monkeypatch.setattr(CycloElem, "inv", counting("inv", CycloElem.inv))
    monkeypatch.setattr(CycloElem, "__mul__", counting("mul", CycloElem.__mul__))
    for cls in (CycloField, CycloElem):
        init = counting(f"{cls.__name__}.__init__", cls.__init__)
        monkeypatch.setattr(cls, "__init__", init)
    reports = []
    for n in range(2, 25):
        reports += [congruence.verify_tauraso_mod_phi(n), congruence.verify_liu_petrov(n)]
        reports.append(
            congruence.verify_main_theorem(n) if n % 3 == 0
            else congruence.verify_liu_mod_phi2(n)
        )
        reports.append(congruence.verify_reduction_chain(n))
        for k in range(1, n):
            reports.append(congruence.verify_central_qbinom_congruence(n, k))
            reports.append(congruence.verify_row_qbinom_congruence(n, k))
    reports.append(congruence.verify_lucas_qbinom(2, 3, 1, 2, 5))
    corpus = qdsl.shipped_corpus()
    reports += [
        qdsl.run_corpus_entry(e)
        for e in corpus
        if e.mod_index is not None or e.mode == "cyclo"
    ]
    for N in range(1, 7):
        for case, m in (("even", 6 * N), ("odd", 6 * N - 3)):
            for j in galois_orbit(m):
                reports.append(verify_aux_properties(N, j, case))
        for j in galois_orbit(6 * N):
            reports.append(verify_even_case(N, j))
        for j in galois_orbit(6 * N - 3):
            reports.append(verify_odd_case(N, j))
            if N >= 2:
                reports += [verify_sawtooth(N, j, k) for k in range(1, 2 * N - 1)]
        for j in galois_orbit(3 * N):
            reports.append(verify_main3n(N, j))
    for m in (5, 7, 11, 13, 25):
        for chi in charsum.character_group(m)[1:]:
            reports.append(charsum.verify_taoconj((m + 1) // 2, chi))
    assert all(rep.passed for rep in reports)
    assert calls == Counter(), calls


def test_empty_sum_convention():
    # N = 1 exercises every empty sum: all sums over 1..0 contribute 0
    assert verify_even_case(1, 1).passed
    assert verify_odd_case(1, 1).passed
    assert verify_main3n(1, 1).passed
    aux = compute_auxiliaries(1, 1, "even")
    assert aux.a1.is_zero() and aux.a6.is_zero()


def test_exact_vs_float_consistency():
    # exact pass implies the complex embedding is numerically tiny
    from qcatalan.cyclotomic import _field_sum

    for (n, j) in ((2, 1), (3, 2), (4, 5)):
        m = 3 * n
        terms = [(1, 0, j * (3 * k - 1), 1) for k in range(1, n + 1)]
        terms += [(Fraction(-n, 3), 0, 0, 0), (Fraction(n, 3), j * n, 0, 0)]
        acc = _field_sum(m, terms)
        assert abs(acc.value().to_complex()) < 1e-12
