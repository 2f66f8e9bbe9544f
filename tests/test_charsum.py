"""Dirichlet character groups and the character-sum identity."""

import dataclasses
import random
from math import gcd, lcm

import pytest

from qcatalan import charsum
from qcatalan.charsum import (
    DirichletChar,
    character_group,
    compute_char_sums,
    primitive_root,
    verify_taoconj,
)
from qcatalan.cyclotomic import CycloElem, euler_phi


def _crt_value_exponent(chi, a, data):
    """The per-value CRT, the oracle for DirichletChar.exponent_table: t
    with chi(a) = zeta_e^t (e = chi.order), or None when gcd(a, m) > 1.
    Each CRT factor adds d t E / s mod E, where d is the discrete log of a
    mod its prime power and E the lcm of the factor orders s."""
    a %= chi.modulus
    if gcd(a, chi.modulus) != 1:
        return None
    e, E = chi.order, lcm(*data.orders)
    acc = 0
    factors = zip(data.prime_powers, data.orders, chi.exponents, data.dlogs)
    for pk, s, t, table in factors:
        acc = (acc + table[a % pk] * t * (E // s)) % E
    assert acc * e % E == 0
    return acc * e // E % e


def value_exponent(chi, a):
    """t with chi(a) = zeta_e^t (e = chi.order), or None when chi(a) = 0."""
    return chi.exponent_table[a % chi.modulus]


def char_value(chi, a, L):
    """chi(a) as an element of Q(zeta_L); requires order(chi) | L."""
    e = chi.order
    if L % e != 0:
        raise ValueError(f"character order {e} does not divide {L}")
    t = value_exponent(chi, a)
    if t is None:
        return CycloElem.zero(L)
    return CycloElem.root_power(L, (L // e) * t)


def _table_mismatches(m, data):
    """(index, a) for every character mod m and a in range(m) where the
    exponent table disagrees with the CRT oracle run on data."""
    return [
        (chi.index, a)
        for chi in character_group(m)
        for a, t in enumerate(chi.exponent_table)
        if t != _crt_value_exponent(chi, a, data)
    ]


def test_exponent_table_matches_the_crt_oracle():
    characters = values = 0
    for m in range(3, 100, 2):
        assert _table_mismatches(m, charsum._group_data(m)) == [], m
        for chi in character_group(m):
            assert len(chi.exponent_table) == m
            assert value_exponent(chi, -1) == chi.exponent_table[m - 1]
            assert value_exponent(chi, m + 2) == chi.exponent_table[2]
            characters += 1
            values += m
    assert (characters, values) == (2006, 133246)


def test_table_without_one_crt_factor_fails_the_oracle(monkeypatch):
    # a table that drops factor i's weight (every discrete log mod p_i^a_i
    # read as 0) must disagree with the oracle
    for m in (15, 35):
        real = charsum._group_data(m)
        for i in range(len(real.dlogs)):
            dlogs = list(real.dlogs)
            dlogs[i] = dict.fromkeys(dlogs[i], 0)
            mutant = dataclasses.replace(real, dlogs=tuple(dlogs))
            monkeypatch.setattr(charsum, "_group_data", lambda _m, d=mutant: d)
            assert _table_mismatches(m, real), (m, i)
            monkeypatch.undo()


def test_exponent_table_is_cached_and_leaves_eq_and_hash_alone():
    chi = character_group(35)[7]
    twin = DirichletChar(35, chi.exponents)
    table = chi.exponent_table
    assert chi.exponent_table is table and "exponent_table" not in vars(twin)
    assert chi == twin and hash(chi) == hash(twin)
    assert twin.exponent_table == table and chi.order == twin.order
    with pytest.raises(dataclasses.FrozenInstanceError):
        chi.modulus = 5


def test_primitive_roots():
    assert primitive_root(3, 1) == 2
    assert primitive_root(5, 1) == 2
    assert primitive_root(7, 1) == 3
    assert primitive_root(3, 2) == 2  # 2 generates (Z/9)*


def test_group_sizes_and_orders():
    g5 = character_group(5)
    assert len(g5) == 4
    assert sorted(c.order for c in g5) == [1, 2, 4, 4]
    assert len(character_group(9)) == 6
    assert len(character_group(15)) == 8
    for m in (5, 9, 15, 21, 49):
        assert len(character_group(m)) == euler_phi(m)
    with pytest.raises(ValueError):
        character_group(8)
    with pytest.raises(ValueError):
        character_group(1)


def test_exactly_one_principal():
    for m in (5, 9, 15, 35):
        principals = [c for c in character_group(m) if c.is_principal()]
        assert len(principals) == 1


def test_char_values():
    g5 = character_group(5)
    principal = g5[0]
    assert char_value(principal, 3, 4) == 1
    assert char_value(g5[1], 10, 4).is_zero()  # non-unit
    leg = next(c for c in g5 if c.order == 2)
    assert char_value(leg, 2, 2) == -1  # 2 is a non-residue mod 5
    assert char_value(leg, 4, 2) == 1
    with pytest.raises(ValueError):
        char_value(g5[1], 2, 3)  # order must divide L


def test_values_are_roots_of_unity():
    for m in (5, 9, 15):
        for chi in character_group(m):
            e = chi.order
            for a in range(1, m):
                if gcd(a, m) != 1:
                    assert char_value(chi, a, e).is_zero()
                else:
                    assert char_value(chi, a, e) ** e == 1


def test_multiplicativity_random():
    rng = random.Random(9001)
    for m in (5, 9, 15, 21, 25, 35, 49):
        for chi in character_group(m):
            L = 12 * chi.order
            for _ in range(6):
                a, b = rng.randrange(1, 3 * m), rng.randrange(1, 3 * m)
                assert char_value(chi, a, L) * char_value(chi, b, L) == char_value(
                    chi, a * b, L
                )


def test_orthogonality_up_to_100():
    for m in range(3, 101, 2):
        for chi in character_group(m):
            if chi.is_principal():
                continue
            total = CycloElem.zero(chi.order)
            for a in range(1, m + 1):
                total = total + char_value(chi, a, chi.order)
            assert total.is_zero(), (m, chi.exponents)


def test_group_closure_spot_check():
    for m in (15, 21):
        chars = character_group(m)
        for a in chars[:4]:
            for b in chars[:4]:
                assert (a * b) in chars


def test_compute_char_sums_shapes():
    chars5 = character_group(5)
    leg = next(c for c in chars5 if c.order == 2)
    sums = compute_char_sums(3, leg)
    for elem in (sums.s1, sums.s2, sums.t1, sums.t2):
        assert elem.m == 6  # L = lcm(3, 2)
    # the principal character's sums are computable; only the identity
    # check itself excludes it
    principal = chars5[0]
    assert principal.is_principal()
    compute_char_sums(3, principal)
    chars7 = character_group(7)
    full = next(c for c in chars7 if c.order == 6)
    sums7 = compute_char_sums(4, full)
    assert sums7.s1.m == 6
    with pytest.raises(ValueError):
        compute_char_sums(2, character_group(5)[1])  # 2N-1 = 3 divisible by 3
    with pytest.raises(ValueError):
        compute_char_sums(3, character_group(7)[1])  # modulus mismatch


def test_taoconj_small():
    for N, m in ((3, 5), (4, 7)):
        for chi in character_group(m):
            if chi.is_principal():
                with pytest.raises(ValueError):
                    verify_taoconj(N, chi)
                continue
            assert verify_taoconj(N, chi, "exact").passed
            assert verify_taoconj(N, chi, "float", 1e-9).passed


def test_taoconj_float_matches_exact():
    for m in (5, 7, 11, 13):
        N = (m + 1) // 2
        for chi in character_group(m):
            if chi.is_principal():
                continue
            exact = verify_taoconj(N, chi, "exact")
            approx = verify_taoconj(N, chi, "float", 1e-9)
            assert exact.passed == approx.passed == True  # noqa: E712


def test_taoconj_failure_renders_the_field_product(monkeypatch):
    # perturb S1 by 1: the witness is S1'*T1 + S2*T2 built by CycloElem
    # arithmetic from chi's values, reduced mod Phi_L
    real = charsum.compute_char_sums

    def perturbed(N, chi):
        sums = real(N, chi)
        return charsum.CharSums(sums.s1 + 1, sums.s2, sums.t1, sums.t2)

    monkeypatch.setattr(charsum, "compute_char_sums", perturbed)
    for m in (5, 7, 11, 25):
        N = (m + 1) // 2
        for chi in character_group(m)[1:]:
            L = lcm(3, chi.order)
            eps = CycloElem.root_power(L, L // 3)

            def chi_sum(args, weight):
                out = CycloElem.zero(L)
                for a, w in zip(args, weight):
                    out = out + char_value(chi, a, L) * w
                return out

            js = range(2 * N - 1)
            s1 = chi_sum([6 * j + 1 for j in js], js) + 1
            s2 = chi_sum([6 * j + 2 for j in js], js)
            ks = range(1, 2 * N - 1)
            t1 = chi_sum(ks, [eps ** ((2 * N - 1) * k % 3) for k in ks])
            ks = range(1 - N, N)
            t2 = chi_sum(ks, [eps ** ((2 * (2 * N - 1) * k + 2) % 3) for k in ks])
            want = s1 * t1 + s2 * t2
            rep = verify_taoconj(N, chi)
            assert rep.status == "fail" and not want.is_zero(), (m, chi.index)
            assert rep.witness == want.render(), (m, chi.index)
            float_rep = verify_taoconj(N, chi, "float")
            mag = abs(want.to_complex())
            assert float_rep.status == "fail"
            assert float_rep.witness.startswith(f"|S1*T1 + S2*T2| = {mag:.3e}")


def test_taoconj_rejects_bad_modulus():
    chars9 = character_group(9)
    with pytest.raises(ValueError):
        verify_taoconj(5, chars9[1])  # m = 9 divisible by 3


def test_character_index_round_trip():
    for m in range(3, 100, 2):
        for idx, chi in enumerate(character_group(m)):
            assert chi.index == idx
            assert DirichletChar.from_index(m, idx) == chi
        for bad in (-1, euler_phi(m)):
            with pytest.raises(ValueError):
                DirichletChar.from_index(m, bad)


def test_conductor():
    # the order-2 character mod 9 is induced from the quadratic character mod 3
    chars9 = character_group(9)
    quad = next(c for c in chars9 if c.order == 2)
    assert quad.conductor() == 3
    principal = next(c for c in chars9 if c.is_principal())
    assert principal.conductor() == 1
    # imprimitive characters mod 15 with conductor 3 or 5 exist
    conds = {c.conductor() for c in character_group(15)}
    assert 3 in conds and 5 in conds and 15 in conds


def test_taoconj_includes_imprimitive_characters():
    # all non-principal characters are swept, induced ones included; record
    # that the identity holds regardless of conductor
    m = 25
    N = 13
    seen_imprimitive = False
    for chi in character_group(m):
        if chi.is_principal():
            continue
        if chi.conductor() < m:
            seen_imprimitive = True
        assert verify_taoconj(N, chi).passed
    assert seen_imprimitive


def _sweep_characters(bound):
    """(N, chi) for every non-principal character of every modulus
    5 <= m < bound that 3 does not divide, in sweep order."""
    return [
        ((m + 1) // 2, chi)
        for m in range(5, bound, 2)
        if m % 3
        for chi in character_group(m)[1:]
    ]


def _galois_orbit(chi):
    """The characters chi^a for gcd(a, e) = 1 (and a = 1 mod 3 when 3 | e),
    built by repeated DirichletChar multiplication."""
    e = chi.order
    out, power = set(), chi
    for a in range(1, e + 1):
        if gcd(a, e) == 1 and (e % 3 or a % 3 == 1):
            out.add(power)
        power = power * chi
    return frozenset(out)


def _orbit_mismatches(bound):
    """(m, index) of each character whose mapped orbit value
    sigma_b(S1 T1 + S2 T2 for rep) differs from its own S1 T1 + S2 T2 in
    vector or denominator; rep and b come from charsum._orbit_rep."""
    bad = []
    for N, chi in _sweep_characters(bound):
        rep, b = charsum._orbit_rep(chi)
        assert rep in _galois_orbit(chi)
        got = charsum._orbit_combo(compute_char_sums, N, rep).conjugate(b)
        sums = compute_char_sums(N, chi)
        want = sums.s1 * sums.t1 + sums.s2 * sums.t2
        if (got.vec, got.den) != (want.vec, want.den):
            bad.append((chi.modulus, chi.index))
    return bad


def test_orbit_value_maps_onto_every_character_below_40():
    assert _orbit_mismatches(40) == []


def test_orbit_map_without_b_one_mod_three_fails_the_oracle(monkeypatch):
    # sigma_b with b = 2 mod 3 sends eps to eps^2: the mapped value is no
    # longer chi's S1 T1 + S2 T2
    real = charsum._orbit_rep

    def mutant(chi):
        rep, b = real(chi)
        e = chi.order
        if e % 3:
            b = next(c for c in range(3 * e) if c % e == b % e and c % 3 == 2)
        return rep, b

    monkeypatch.setattr(charsum, "_orbit_rep", mutant)
    bad = _orbit_mismatches(40)
    assert bad and bad[0][0] == 5


def test_orbit_memo_sums_once_per_orbit(monkeypatch):
    assert charsum._orbit_combo.cache_info().maxsize == 64
    calls = []
    real = charsum.compute_char_sums

    def counted(N, chi):
        calls.append(chi)
        return real(N, chi)

    monkeypatch.setattr(charsum, "compute_char_sums", counted)
    sweep = _sweep_characters(40)
    assert len(sweep) == 214
    assert len({_galois_orbit(chi) for _, chi in sweep}) == 86
    # each modulus holds at most 36 orbits, so a repeat of its characters
    # right after them finds every orbit in the memo
    for m in range(5, 40, 2):
        if m % 3:
            chars = [(N, chi) for N, chi in sweep if chi.modulus == m]
            before = len(calls)
            for N, chi in chars:
                assert verify_taoconj(N, chi).passed
            first = len(calls) - before
            assert first == len({_galois_orbit(chi) for _, chi in chars}), m
            for N, chi in chars:
                assert verify_taoconj(N, chi).passed
            assert len(calls) == before + first, m
    assert len(calls) == 86
    assert charsum._orbit_combo.cache_info().currsize <= 64
    # float mode sums every character on its own
    for N, chi in sweep[:20]:
        assert verify_taoconj(N, chi, "float").passed
    assert len(calls) == 86 + 20


def test_taoconj_validates_before_the_orbit_memo(monkeypatch):
    def unreachable(chi):
        raise AssertionError("representative sought for rejected input")

    monkeypatch.setattr(charsum, "_orbit_rep", unreachable)
    chi5, chi9 = character_group(5)[1], character_group(9)[1]
    size = charsum._orbit_combo.cache_info().currsize
    for mode in ("exact", "float"):
        with pytest.raises(ValueError, match="need N >= 2"):
            verify_taoconj(1, chi5, mode)
        with pytest.raises(ValueError, match="2N-1 must not be divisible by 3"):
            verify_taoconj(5, chi9, mode)
        with pytest.raises(ValueError, match="character modulus must equal 2N-1"):
            verify_taoconj(4, chi5, mode)
    assert charsum._orbit_combo.cache_info().currsize == size
