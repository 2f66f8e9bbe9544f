"""Polynomial congruence suites."""

import json
import random
from fractions import Fraction
from math import comb

import pytest

from qcatalan import congruence
from qcatalan.congruence import (
    _chain_sums,
    _residue_witness,
    boundary_term,
    verify_central_qbinom_congruence,
    verify_liu_mod_phi2,
    verify_liu_petrov,
    verify_lucas_qbinom,
    verify_main_theorem,
    verify_maj_oracle,
    verify_reduction_chain,
    verify_row_qbinom_congruence,
    verify_tauraso13_identity,
    verify_tauraso_mod_phi,
)
from qcatalan.cyclotomic import (
    _eps_congruent,
    _field_sum,
    cyclotomic_poly,
    phi_power_divides,
    poly_xgcd,
    reduce_mod_phi_power,
)
from qcatalan.qcomb import (
    catalan_residue,
    catalan_sum,
    central_residue,
    gaussian_binomial,
    shifted_central_sum,
)
from qcatalan.ring import Poly, Q, as_coeff


def _report(residue):
    """The report of a check whose verdict is residue = 0 mod Phi_3."""
    return congruence.run_check("x", {"n": 3}, lambda: _residue_witness(residue, 3, 1))


def test_report_shape():
    rep = _report(Poly.zero())
    obj = json.loads(rep.to_json())
    assert set(obj) == {"suite", "params", "status", "elapsed_ms"}
    assert obj["status"] == "pass"
    bad = _report(Poly([1]))
    obj = json.loads(bad.to_json())
    assert obj["witness"]  # fail => witness present and nonzero


def test_report_lines_match_json_dumps():
    # the shared encoder writes what json.dumps(..., sort_keys=True) writes
    reports = [_report(Poly.zero()), _report(Poly([1]))]
    witness = "1 + q mod Φ_7"  # non-ASCII, as json.dumps escapes it
    reports.append(congruence.VerificationReport("x", {"n": 7, "a": 1}, "fail", witness, 0.0012))
    assert [r.status for r in reports] == ["pass", "fail", "fail"]
    for rep in reports:
        assert rep.to_json() == json.dumps(rep.to_json_obj(), sort_keys=True)
    assert reports[1].to_json_obj()["witness"]


def test_tauraso_phi_hand_example():
    # n = 2: sum is 1 + q, right side -1 - q, difference 2 + 2q = 2 Phi_2
    assert catalan_sum(2) == Poly([1, 1])
    rep = verify_tauraso_mod_phi(2)
    assert rep.passed
    assert verify_tauraso_mod_phi(3).passed
    assert verify_tauraso_mod_phi(4).passed
    with pytest.raises(ValueError):
        verify_tauraso_mod_phi(1)


def test_tauraso_phi_sweep():
    for n in range(2, 61):
        assert verify_tauraso_mod_phi(n).passed, n


def test_liu_phi2():
    assert verify_liu_mod_phi2(2).passed
    assert verify_liu_mod_phi2(4).passed
    with pytest.raises(ValueError):
        verify_liu_mod_phi2(3)
    for n in range(2, 41):
        if n % 3:
            assert verify_liu_mod_phi2(n).passed, n


def test_main_theorem():
    assert verify_main_theorem(3).passed
    assert verify_main_theorem(6).passed
    with pytest.raises(ValueError):
        verify_main_theorem(4)
    for n in range(3, 61, 3):
        assert verify_main_theorem(n).passed, n


def test_main_theorem_witness_is_the_unscaled_residue(monkeypatch):
    # the zero test runs on 3 * (lhs - rhs); a failure still shows lhs - rhs
    def perturbed(n):
        return catalan_residue(n) + Poly.monomial(Fraction(1, 3), n * n) + 2 * Q

    monkeypatch.setattr(congruence, "catalan_residue", perturbed)
    for n in (3, 9):
        rhs = Poly.monomial(1, n * (2 * n + 1) // 3) + (
            Poly.monomial(1, n) - 1
        ) * (Poly.monomial(n + 1, 2 * n // 3) + 2) * Fraction(1, 3)
        rem = reduce_mod_phi_power(perturbed(n) - rhs, n, 2)
        rep = verify_main_theorem(n)
        assert not rep.passed and any(type(c) is Fraction for c in rem.coeffs)
        assert rep.witness == rem.render()


def test_phi_suite_witness_is_the_remainder(monkeypatch):
    # a perturbed left side fails with its remainder mod Phi_n^e rendered
    def perturbed(n):
        return catalan_residue(n) + Poly.monomial(Fraction(2, 5), n + 1) + Q

    monkeypatch.setattr(congruence, "catalan_residue", perturbed)
    cases = [
        (verify_tauraso_mod_phi, 4, 1, Q),
        (verify_tauraso_mod_phi, 5, 1, -(Q**3) - 1),
        (verify_tauraso_mod_phi, 6, 1, Q**2),
        (verify_liu_mod_phi2, 4, 2, Q**5 - (Q**4 - 1)),
        (verify_liu_mod_phi2, 5, 2, -(Q**8) - Q**15),
    ]
    for verify, n, e, rhs in cases:
        want = reduce_mod_phi_power(perturbed(n) - rhs, n, e).render()
        assert verify(n).witness == want, (verify, n)


def test_residue_witness_matches_the_unfolded_remainder():
    # monomials c q^t folded mod (q^n - 1)^2 and a zero test on D times the
    # difference give the verdict and the remainder of residue - sum c q^t
    # built unfolded; half the residues are made to pass
    rng = random.Random(16)

    def coeff(den):
        return as_coeff(Fraction(rng.randint(-9, 9), rng.randint(1, den)))

    for _ in range(200):
        n, e = rng.randint(1, 40), rng.randint(1, 2)
        rhs = [(coeff(6), rng.randint(0, 3 * n * n)) for _ in range(rng.randint(0, 6))]
        unfolded = Poly.zero()
        for c, t in rhs:
            unfolded = unfolded + Poly.monomial(c, t)
        residue = Poly([coeff(rng.choice((1, 4))) for _ in range(rng.randint(0, 3 * n))])
        if rng.random() < 0.5:
            residue = unfolded + residue * cyclotomic_poly(n) ** e
        rem = reduce_mod_phi_power(residue - unfolded, n, e)
        want = None if rem.is_zero() else rem.render()
        assert _residue_witness(residue, n, e, rhs) == want, (n, e, residue, rhs)


def test_residue_witness_folds_monomials_only_mod_phi_squared():
    # Phi_n^3 does not divide (q^n - 1)^2, so folded monomials cannot be
    # judged mod Phi_n^3; a bare residue can, as corpus lines ask
    with pytest.raises(ValueError):
        _residue_witness(Poly.zero(), 5, 3, [(1, 0)])
    assert _residue_witness(Poly.monomial(1, 5) - 1, 5, 3) is not None
    assert _residue_witness((Poly.monomial(1, 5) - 1) ** 3, 5, 3) is None


def test_chain_verdict_inputs_take_the_two_row_fold(monkeypatch):
    # the difference each chain suite hands phi_power_divides, for every
    # n <= 100, has degree below 2n and passes.  Adding q^n - 1 (zero mod
    # Phi_n, not mod Phi_n^2) keeps it zero mod Phi_n and, for the Phi_n^2
    # suites, makes it nonzero mod Phi_n^2, which only the derivative pass
    # sees; a Phi_n suite's difference need not vanish mod Phi_n^2 (at n = 2
    # tauraso-phi's sum with q^2 - 1 does), so there the remainder decides
    seen = []
    monkeypatch.setattr(congruence, "phi_power_divides",
                        lambda f, n, e: seen.append((list(f), n, e)) or phi_power_divides(f, n, e))
    suites = (
        (verify_tauraso_mod_phi, range(2, 101)),
        (verify_liu_mod_phi2, [n for n in range(2, 101) if n % 3]),
        (verify_main_theorem, range(3, 101, 3)),
        (verify_liu_petrov, range(2, 101)),
    )
    for verify, ns in suites:
        for n in ns:
            seen.clear()
            assert verify(n).passed, (verify, n)
            [(diff, _, e)] = seen
            assert n < len(diff) <= 2 * n, (verify, n)
            assert phi_power_divides(diff, n, e)
            shifted = diff + [0] * (n + 1 - len(diff))
            shifted[0] -= 1
            shifted[n] += 1
            assert phi_power_divides(shifted, n, 1)
            divides = phi_power_divides(shifted, n, 2)
            assert divides == reduce_mod_phi_power(Poly(shifted), n, 2).is_zero()
            assert not divides or e == 1, (verify, n)


def test_phi2_suites_reject_a_change_by_a_multiple_of_phi(monkeypatch):
    # q^5 (1 - q^n) is zero mod Phi_n but not mod Phi_n^2: adding it to a
    # right side is the same as subtracting it from the stored left side
    for name in ("catalan_residue", "central_residue"):
        stored = getattr(congruence, name)

        def perturbed(n, stored=stored):
            return stored(n) - Poly.monomial(1, 5) * (1 - Poly.monomial(1, n))

        monkeypatch.setattr(congruence, name, perturbed)
    for n in range(2, 31):
        assert verify_tauraso_mod_phi(n).passed, n
        assert verify_liu_petrov(n).status == "fail", n
        if n % 3:
            assert verify_liu_mod_phi2(n).status == "fail", n
        else:
            assert verify_main_theorem(n).status == "fail", n


def test_main_theorem_n3_by_hand():
    # 1 + q + q^2 + q^4 vs q^7 + (1/3)(q^3 - 1)(2 + 4 q^2) mod (q^2+q+1)^2
    lhs = Poly([1, 1, 1, 0, 1])
    rhs = Poly.monomial(1, 7) + (Poly.monomial(1, 3) - 1) * Poly(
        [2, 0, 4]
    ) * Fraction(1, 3)
    assert reduce_mod_phi_power(lhs - rhs, 3, 2).is_zero()


def test_liu_petrov():
    for n in (2, 3, 5):
        assert verify_liu_petrov(n).passed
    for n in range(2, 41):
        assert verify_liu_petrov(n).passed, n


def test_tauraso13():
    assert verify_tauraso13_identity(1).passed
    # n = 2 by hand: lhs = q^2 [2,2] = q^2; rhs = k=2 term with unit Legendre factor
    assert shifted_central_sum(2) == Poly.monomial(1, 2)
    assert verify_tauraso13_identity(2).passed
    assert verify_tauraso13_identity(5).passed
    for n in range(1, 21):
        assert verify_tauraso13_identity(n).passed, n


def test_lucas():
    assert verify_lucas_qbinom(1, 1, 0, 2, 3).passed
    assert verify_lucas_qbinom(2, 0, 1, 0, 4).passed
    assert verify_lucas_qbinom(1, 0, 1, 1, 5).passed
    with pytest.raises(ValueError):
        verify_lucas_qbinom(1, 5, 0, 0, 5)  # b must be < n


def test_central_row_congruences():
    assert verify_central_qbinom_congruence(3, 1).passed
    assert verify_central_qbinom_congruence(5, 2).passed
    with pytest.raises(ValueError):
        verify_central_qbinom_congruence(4, 4)
    assert verify_row_qbinom_congruence(3, 1).passed
    assert verify_row_qbinom_congruence(3, 2).passed
    assert verify_row_qbinom_congruence(7, 3).passed
    with pytest.raises(ValueError):
        verify_row_qbinom_congruence(5, 0)
    for n in range(2, 26):
        for k in range(1, n):
            assert verify_central_qbinom_congruence(n, k).passed, (n, k)
            assert verify_row_qbinom_congruence(n, k).passed, (n, k)


# ---------------------------------------------------------------------------
# the q-binomial suites at zeta_n (+ eps) against the Poly path

QBINOM = {
    "lucas": lambda p: verify_lucas_qbinom(**p),
    "central-binom": lambda p: verify_central_qbinom_congruence(**p),
    "row-binom": lambda p: verify_row_qbinom_congruence(**p),
}


def _default_params(suite):
    """The parameters of the suite's default sweep: lucas n <= 30,
    central-binom n <= 20, row-binom n <= 25."""
    from qcatalan import cli

    return [p for _, p in cli.generate_tasks(cli.RunConfig(suites=[suite]), suite)]


def _same_rhs(n, rhs):
    return rhs


def _poly_witness(suite, p, change=_same_rhs, scale=comb):
    """The check on the Poly path: the Gaussian binomials built, and the
    difference reduced mod Phi_n^e by _residue_witness.  change(n, rhs)
    alters the right side's monomials, scale(a, c) the lucas scalar."""
    n = p["n"]
    if suite == "lucas":
        a, b, c, d = p["a"], p["b"], p["c"], p["d"]
        diff = gaussian_binomial(a * n + b, c * n + d) - gaussian_binomial(b, d) * scale(a, c)
        return _residue_witness(diff, n, 1)
    k = p["k"]
    if suite == "row-binom":
        lhs = gaussian_binomial(n - 1, k - 1).shift(k * (k - 1) // 2 % n)
        return _residue_witness(lhs, n, 1, change(n, [((-1) ** (k - 1), 0)]))
    t, c = -(k * (k - 1) // 2) % n, 2 * (-1) ** k
    lhs = gaussian_binomial(2 * n, n + k) * (1 - Poly.monomial(1, k))
    return _residue_witness(lhs, n, 2, change(n, [(c, n + t), (-c, t)]))


def _change_rhs(monkeypatch, change):
    """Hand both verdict paths of row-binom and central-binom the right side
    change(n, rhs) in place of rhs."""
    fast, slow = congruence._eps_congruent, congruence._residue_witness

    def changed_fast(n, e, up, down, rhs, shift=0):
        return fast(n, e, up, down, change(n, rhs), shift)

    monkeypatch.setattr(congruence, "_eps_congruent", changed_fast)
    monkeypatch.setattr(
        congruence, "_residue_witness", lambda res, n, e, rhs=(): slow(res, n, e, change(n, rhs))
    )


def _double_the_scalar(n, rhs):
    return [(2 * c, t) for c, t in rhs]


def _add_qn_minus_1(n, rhs):
    return list(rhs) + [(1, n), (-1, 0)]


def test_qbinom_suites_agree_with_the_poly_path_and_build_no_binomial(monkeypatch):
    # every default check passes on the Poly path, and passes with
    # gaussian_binomial raising: a passing check builds no Gaussian binomial
    want = {suite: [_poly_witness(suite, p) for p in _default_params(suite)] for suite in QBINOM}

    def refuse(n, k):
        raise AssertionError(f"[{n}, {k}] built on a passing check")

    monkeypatch.setattr(congruence, "gaussian_binomial", refuse)
    for suite, verify in QBINOM.items():
        params = _default_params(suite)
        assert len(params) == {"lucas": 500, "central-binom": 190, "row-binom": 300}[suite]
        assert want[suite] == [None] * len(params), suite
        for p in params:
            assert verify(p).passed, (suite, p)


def test_qbinom_suites_reject_a_changed_right_side(monkeypatch):
    # lucas: C(a, c) + 1 fails every tuple with [b, d] != 0 and cannot show on
    # the 205 with d > b, where both sides are 0; row-binom: a doubled scalar
    # fails everywhere; central-binom: q^n - 1 added to the right side is 0
    # mod Phi_n, so only the eps coefficient sees it, and it fails everywhere.
    # Each failure's witness is the Poly path's remainder
    bumped = lambda a, c: comb(a, c) + 1
    lucas = _default_params("lucas")
    want = [_poly_witness("lucas", p, scale=bumped) for p in lucas]
    monkeypatch.setattr(congruence, "comb", bumped)
    got = [verify_lucas_qbinom(**p).witness for p in lucas]
    assert got == want
    assert sum(w is None for w in got) == sum(p["d"] > p["b"] for p in lucas) == 205
    assert all(w is None for w, p in zip(got, lucas) if p["d"] > p["b"])
    monkeypatch.undo()
    for suite, change in (("row-binom", _double_the_scalar), ("central-binom", _add_qn_minus_1)):
        params = _default_params(suite)
        want = [_poly_witness(suite, p, change) for p in params]
        assert None not in want, suite
        _change_rhs(monkeypatch, change)
        assert [QBINOM[suite](p).witness for p in params] == want, suite
        monkeypatch.undo()
    for p in _default_params("central-binom"):  # the eps^0 coefficient passes
        n, k = p["n"], p["k"]
        up, down = congruence._binomial_runs(2 * n, n + k)
        t, c = -(k * (k - 1) // 2) % n, 2 * (-1) ** k
        rhs = _add_qn_minus_1(n, [(c, n + t), (-c, t)])
        assert _eps_congruent(n, 1, up + [range(k, k + 1)], down, rhs), p
        assert not _eps_congruent(n, 2, up + [range(k, k + 1)], down, rhs), p


def test_qbinom_failure_witnesses_pinned(monkeypatch):
    # forced failures, with the witness texts the Poly path rendered before
    # the suites were evaluated at zeta_n: lucas with C(a, c) + 1 (the
    # quotient branch, and a 0 left side against [4, 2]), row-binom with its
    # scalar doubled and central-binom with q^n - 1 added to its right side
    monkeypatch.setattr(congruence, "comb", lambda a, c: comb(a, c) + 1)
    assert verify_lucas_qbinom(2, 3, 1, 2, 5).witness == "-1 - q - q^2"
    assert verify_lucas_qbinom(1, 4, 3, 2, 7).witness == "-1 - q - 2*q^2 - q^3 - q^4"
    monkeypatch.undo()
    _change_rhs(monkeypatch, _double_the_scalar)
    assert verify_row_qbinom_congruence(7, 3).witness == "-1"
    assert verify_row_qbinom_congruence(6, 2).witness == "1"
    monkeypatch.undo()
    _change_rhs(monkeypatch, _add_qn_minus_1)
    assert verify_central_qbinom_congruence(5, 2).witness == "1 - q^5"
    assert verify_central_qbinom_congruence(6, 1).witness == "2 + 2*q^3"


def test_eps_congruent_matches_the_poly_remainder():
    # products q^shift [N1, K1] [N2, K2] (1 - q^s) in the shapes the suites
    # use, e = 1, or e = 2 with a factor 1 - q^(jn) that vanishes at zeta_n,
    # against the remainder of their Poly form minus the monomials, which
    # are half the time that form plus a multiple of Phi_n^e
    rng = random.Random(33)
    verdicts = set()
    for _ in range(400):
        n, e, shift = rng.randint(1, 10), rng.randint(1, 2), rng.randint(0, 15)
        up, down, poly = [], [], Poly.monomial(1, shift)
        for _ in range(rng.randint(1, 2)):
            top = rng.randint(0, 30)
            k = rng.randint(0, top)
            runs = congruence._binomial_runs(top, k)
            up, down, poly = up + runs[0], down + runs[1], poly * gaussian_binomial(top, k)
        extra = [rng.randint(1, 25)] if rng.random() < 0.5 else []
        if e == 2:
            extra.append(n * rng.randint(1, 3))
        for s in extra:
            up, poly = up + [range(s, s + 1)], poly * (1 - Poly.monomial(1, s))
        other = Poly([rng.randint(-2, 2) for _ in range(rng.randint(0, 4))])
        if rng.random() < 0.5:
            other = poly + other * cyclotomic_poly(n) ** e
        rhs = [(c, t) for t, c in enumerate(other.coeffs) if c]
        want = reduce_mod_phi_power(poly - other, n, e).is_zero()
        assert _eps_congruent(n, e, up, down, rhs, shift) == want, (n, e, up, down, shift)
        verdicts.add((e, want))
    assert verdicts == {(1, True), (1, False), (2, True), (2, False)}
    with pytest.raises(ValueError):  # 1 / (1 - q^n) has a pole at zeta_n
        _eps_congruent(5, 1, [], [range(5, 6)], [])
    with pytest.raises(ValueError):  # e = 2 needs a factor vanishing at zeta_n
        _eps_congruent(5, 2, [range(1, 3)], [], [])


def test_row_n3_k2_by_hand():
    # [2,1] q = q + q^2 = Phi_3 - 1, so congruent to -1 mod Phi_3
    assert reduce_mod_phi_power(Poly([1, 1, 1]), 3, 1).is_zero()
    assert verify_row_qbinom_congruence(3, 2).passed


def test_maj_oracle_suite():
    for k in range(0, 9):
        assert verify_maj_oracle(k).passed


def test_reduction_chain_holds_with_boundary_term():
    for n in range(2, 61):
        assert verify_reduction_chain(n).passed, n


def _xgcd_chain_sums(n):
    # the bracketed pair of sums written out on its own, with each
    # 1/(1 - q^s) inverted modulo Phi_n^2 by the extended Euclidean
    # algorithm over Q[x] and each term reduced on its own: the oracle for
    # the Q(zeta_n) sum of _chain_sums
    modulus = cyclotomic_poly(n) ** 2

    def term(sign, e, s):
        g, inv, _ = poly_xgcd(1 - Poly.monomial(1, s), modulus)
        assert g == Poly.one()
        return (inv.shift(e % n) * sign).divmod(modulus)[1]

    total = Poly.zero()
    for k in range(1, n // 3 + 1):
        total = total + term((-1) ** k, k * (3 * k - 1) // 2, 3 * k - 1)
    for k in range(1, (n - 1) // 3 + 1):
        total = total + term((-1) ** k, k * (3 * k + 5) // 2, 3 * k)
    return total.divmod(modulus)[1]


def test_reduction_chain_sides_match_xgcd_and_walk_oracles():
    for n in range(2, 31):
        qn_minus_1 = Poly.monomial(1, n) - 1
        acc = _field_sum(n, _chain_sums(n))
        sums = Poly(acc.vec) * Fraction(1, acc.den)
        assert sums.degree < n
        assert reduce_mod_phi_power(qn_minus_1 * sums, n, 2) == reduce_mod_phi_power(
            qn_minus_1 * _xgcd_chain_sums(n), n, 2
        ), n
        stored = central_residue(n) - catalan_residue(n)
        assert reduce_mod_phi_power(stored - shifted_central_sum(n), n, 2).is_zero(), n


def test_reduction_chain_rejects_a_change_by_a_multiple_of_phi(monkeypatch):
    # q^5 (1 - q^n) is zero mod Phi_n but not mod Phi_n^2
    def perturbed(n, stored=boundary_term):
        return stored(n) + Poly.monomial(1, 5) * (1 - Poly.monomial(1, n))

    monkeypatch.setattr(congruence, "boundary_term", perturbed)
    for n in (5, 6, 7, 12):
        assert verify_reduction_chain(n).status == "fail", n


def test_boundary_swap_is_a_real_discrepancy():
    # The k = 0 term of the zero-based sum, -[2n, n], does NOT agree with
    # the k = n boundary monomial modulo Phi_n^2; the chain only balances
    # because the honest form keeps the boundary term.  Recorded, not patched.
    for n in range(2, 13):
        swap = gaussian_binomial(2 * n, n) + boundary_term(n)
        assert not reduce_mod_phi_power(swap, n, 2).is_zero(), n


def test_consistency_chain_on_shared_n():
    # on a shared multiple of 3 every link of the reduction must pass
    from qcatalan.rootid import galois_orbit, verify_main3n

    for n in (3, 6, 9, 12):
        assert verify_liu_petrov(n).passed
        assert verify_tauraso13_identity(n).passed
        for k in range(1, n):
            assert verify_central_qbinom_congruence(n, k).passed
        for j in galois_orbit(n):
            assert verify_main3n(n // 3, j).passed
        assert verify_main_theorem(n).passed


def test_exactly_one_rhs_applies():
    # the three residue-class right-hand sides partition the sweep
    for n in range(2, 31):
        forms = [n % 3 in (0, 1), n % 3 == 2]
        assert sum(forms) == 1
