"""q-combinatorics: Gaussian binomials, q-Catalan polynomials, maj oracle."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from qcatalan import qcomb
from qcatalan.qcomb import (
    ballot_words,
    catalan_residue,
    catalan_sum,
    central_residue,
    central_sum,
    gaussian_binomial,
    legendre3,
    major_index,
    q_catalan,
    q_catalan_maj_oracle,
    shifted_central_sum,
)
from qcatalan.cyclotomic import reduce_mod_phi_power
from qcatalan.ring import Poly, _div_one_minus, _mul_one_minus

from test_cyclotomic import _fold_by_long_division


class PascalOracle:
    """Independent Gaussian binomial via the q-Pascal recurrence
    [n, k] = [n-1, k-1] + q^k [n-1, k]."""

    def __init__(self):
        self.memo = {}

    def __call__(self, n, k):
        if k < 0 or k > n:
            return Poly.zero()
        if k == 0 or k == n:
            return Poly([1])
        key = (n, k)
        if key not in self.memo:
            self.memo[key] = self(n - 1, k - 1) + self(n - 1, k).shift(k)
        return self.memo[key]


def q_pochhammer(s, n):
    """The q-shifted factorial (q^s; q)_n = prod_{i<n} (1 - q^(s+i)), by Poly
    products: the oracle for the Gaussian binomials' defining quotient."""
    out = Poly([1])
    for i in range(n):
        out = out * (1 - Poly.monomial(1, s + i))
    return out


def test_pochhammer_examples():
    assert q_pochhammer(1, 0) == 1
    assert q_pochhammer(1, 2) == Poly([1, -1, -1, 1])
    assert q_pochhammer(2, 1) == Poly([1, 0, -1])


def test_binomial_factor_kernels():
    from qcatalan.qcomb import _div_one_minus, _mul_one_minus

    # p * (1 - q^t) / (1 - q^t) round-trips, and remainders raise
    rng = random.Random(55)
    for _ in range(200):
        t = rng.randint(1, 8)
        p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 15))]
        assert _div_one_minus(_mul_one_minus(list(p), t), t) == p
    with pytest.raises(ValueError):
        _div_one_minus([1], 3)  # constants are not divisible by 1 - q^3
    with pytest.raises(ValueError):
        _div_one_minus([1, 1], 1)  # 1 + q is not divisible by 1 - q
    assert _div_one_minus([0, 0], 3) == []  # zero divides cleanly


def test_gaussian_examples():
    assert gaussian_binomial(2, 1) == Poly([1, 1])
    assert gaussian_binomial(4, 2) == Poly([1, 1, 2, 1, 1])
    assert gaussian_binomial(3, 5).is_zero()
    assert gaussian_binomial(-1, 0).is_zero()


def test_gaussian_pascal_and_symmetry():
    oracle = PascalOracle()
    rng = random.Random(777)
    for _ in range(160):
        n = rng.randint(0, 40)
        k = rng.randint(-2, n + 2)
        lhs = gaussian_binomial(n, k)
        assert lhs == oracle(n, k), (n, k)
        if 0 <= k <= n:
            assert lhs == gaussian_binomial(n, n - k)
            if n >= 1:
                # the mirror recurrence [n,k] = q^(n-k) [n-1,k-1] + [n-1,k]
                assert lhs == gaussian_binomial(n - 1, k - 1).shift(n - k) + (
                    gaussian_binomial(n - 1, k)
                )
    # k > n/2 runs the product of [n, n - k], the shorter one
    for n in range(1, 41):
        for k in (n // 2 + 1, n - 2, n - 1, n):
            assert gaussian_binomial(n, k) == oracle(n, k), (n, k)


def test_binomial_memo_is_bounded_and_exact():
    assert gaussian_binomial.cache_parameters()["maxsize"] == 256
    gaussian_binomial.cache_clear()
    pairs = [(n, k) for n in range(31) for k in range(-1, n + 2)]
    for n, k in pairs[:300]:
        gaussian_binomial(n, k)
    assert gaussian_binomial.cache_info().currsize == 256
    for n, k in pairs:
        got = gaussian_binomial(n, k)
        assert gaussian_binomial(n, k) is got, (n, k)
        assert got == gaussian_binomial.__wrapped__(n, k), (n, k)
        assert all(type(c) is int for c in got.coeffs), (n, k)
    assert gaussian_binomial.cache_info().currsize == 256


def test_binomial_memo_keyed_on_n_alone_is_rejected(monkeypatch):
    # a memo that forgets k hands [n, k'] to a later [n, k]: some shipped
    # poly-mode corpus line and some lucas check of the --n-max 6 sweep fail
    from qcatalan import cli, congruence, qdsl

    built = {}

    def keyed_on_n(n, k):
        if n not in built:
            built[n] = gaussian_binomial.__wrapped__(n, k)
        return built[n]

    for module in (qdsl, congruence):
        monkeypatch.setattr(module, "gaussian_binomial", keyed_on_n)
    lines = [e for e in qdsl.shipped_corpus() if e.mode == "poly"]
    statuses = {qdsl.run_corpus_entry(e).status for e in lines}
    assert "fail" in statuses
    config = cli.RunConfig(suites=["lucas"], n_max=6)
    tasks = [(*t, "exact", 1e-9) for t in cli.generate_tasks(config, "lucas")]
    assert "fail" in {cli.execute_task(t).status for t in tasks}


def test_gaussian_division_always_exact():
    # the implementation asserts exactness internally; the q-Pochhammer
    # quotient definition must agree too
    for n in range(0, 18):
        for k in range(0, n + 1):
            quotient = q_pochhammer(1, n).divmod(
                q_pochhammer(1, k) * q_pochhammer(1, n - k)
            )
            assert quotient[1].is_zero()
            assert quotient[0] == gaussian_binomial(n, k)


def test_qcatalan_first_values():
    assert q_catalan(0) == 1
    assert q_catalan(1) == 1
    assert q_catalan(2) == Poly([1, 0, 1])
    assert q_catalan(3) == Poly([1, 0, 1, 1, 1, 0, 1])


def test_qcatalan_matches_definition():
    for k in range(0, 26):
        assert q_catalan(k) == gaussian_binomial(2 * k, k) - gaussian_binomial(
            2 * k, k + 1
        ).shift(1)


def test_two_definitions_agree():
    # (1 - q^(k+1)) C_k = (1 - q) [2k, k]
    for k in range(0, 41):
        lhs = Poly([1] + [0] * k + [-1]) * q_catalan(k)
        rhs = Poly([1, -1]) * gaussian_binomial(2 * k, k)
        assert lhs == rhs, k


def test_catalan_numbers_at_one():
    for k in range(0, 21):
        assert q_catalan(k).eval(1) == comb(2 * k, k) // (k + 1)


def test_ballot_words():
    assert list(ballot_words(0)) == [()]
    assert list(ballot_words(1)) == [(0, 1)]
    words2 = sorted(ballot_words(2))
    assert words2 == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert major_index((0, 0, 1, 1)) == 0
    assert major_index((0, 1, 0, 1)) == 2
    for k in range(0, 9):
        assert len(list(ballot_words(k))) == comb(2 * k, k) // (k + 1)
    for w in ballot_words(5):
        assert all(w[:i].count(0) >= w[:i].count(1) for i in range(len(w)))


def test_maj_oracle():
    assert q_catalan_maj_oracle(1) == 1
    assert q_catalan_maj_oracle(2) == Poly([1, 0, 1])
    assert q_catalan_maj_oracle(3) == Poly([1, 0, 1, 1, 1, 0, 1])
    for k in range(0, 9):
        assert q_catalan_maj_oracle(k) == q_catalan(k)
    with pytest.raises(ValueError):
        q_catalan_maj_oracle(11)


def test_legendre3():
    assert legendre3(1) == 1
    assert legendre3(2) == -1
    assert legendre3(-3) == 0
    assert legendre3(-1) == -1
    assert [legendre3(a) for a in range(6)] == [0, 1, -1, 0, 1, -1]


def test_catalan_sum_examples():
    assert catalan_sum(1) == 1
    assert catalan_sum(2) == Poly([1, 1])
    assert catalan_sum(3) == Poly([1, 1, 1, 0, 1])
    with pytest.raises(ValueError):
        catalan_sum(0)


def test_partial_sums_match_direct():
    for n in range(1, 14):
        cat = Poly.zero()
        cen = Poly.zero()
        shifted = Poly.zero()
        for k in range(n):
            cat = cat + q_catalan(k).shift(k)
            cen = cen + gaussian_binomial.__wrapped__(2 * k, k).shift(k)
            shifted = shifted + gaussian_binomial.__wrapped__(2 * k, k + 1).shift(k + 1)
        assert catalan_sum(n) == cat
        assert central_sum(n) == cen
        assert shifted_central_sum(n) == shifted


def _fresh_chain(monkeypatch):
    """A walk at k = 0 and an empty C_k memo, as in a process that has not
    touched the chain."""
    monkeypatch.setattr(qcomb, "_walk", qcomb._Walk())
    q_catalan.cache_clear()


def _chain_oracle(n_max):
    """Every chain accessor's value for n <= n_max, built only from
    gaussian_binomial and C_k = [2k, k] - q [2k, k+1]."""
    want = {}
    cat = cen = shifted = Poly.zero()
    for k in range(n_max + 1):
        central = gaussian_binomial.__wrapped__(2 * k, k)
        above = gaussian_binomial.__wrapped__(2 * k, k + 1).shift(1)
        want["q_catalan", k] = ck = central - above
        cat = cat + ck.shift(k)
        cen = cen + central.shift(k)
        shifted = shifted + above.shift(k)
        want["catalan_sum", k + 1] = cat
        want["central_sum", k + 1] = cen
        want["shifted_central_sum", k + 1] = shifted
    return want


def test_chain_matches_binomial_oracle_in_any_order(monkeypatch):
    want = _chain_oracle(40)
    _fresh_chain(monkeypatch)
    # a late C_k first, then an early sum, then every n descending with
    # the four accessors interleaved
    requests = [(q_catalan, 30), (catalan_sum, 3)]
    for n in range(40, 0, -1):
        requests += [(central_sum, n), (q_catalan, n), (shifted_central_sum, n)]
        requests += [(catalan_sum, n)]
    requests.append((q_catalan, 0))
    for f, n in requests:
        assert f(n) == want[f.__name__, n], (f.__name__, n)
    # each row is built by its own walk; the shared walk stays at k = 0
    assert qcomb.chain_info() == (0, 0)


def test_stored_residues_match_binomial_oracle(monkeypatch):
    want = _chain_oracle(60)
    _fresh_chain(monkeypatch)
    for n in range(60, 0, -1):
        for got, row in (
            (catalan_residue(n), want["catalan_sum", n]),
            (central_residue(n), want["central_sum", n]),
        ):
            assert got == _fold_by_long_division(row, n, 2), n
            for e in (1, 2):
                want_rem = reduce_mod_phi_power(row, n, e)
                assert reduce_mod_phi_power(got, n, e) == want_rem, (n, e)


class _FullWalk:
    """The walk on full coefficient lists, as before it kept only the low
    half of [2k, k]: the oracle for _Walk.step."""

    def __init__(self):
        self.k, self.central, self.cen, self.shifted = 0, [1], [], []

    def step(self):
        k, central = self.k, self.central
        above = _div_one_minus(_mul_one_minus(central, k), k + 1)
        self.cen = qcomb._add_shifted(self.cen, central, k)
        self.shifted = qcomb._add_shifted(self.shifted, above, k + 1)
        odd = qcomb._add_shifted(central, above, k + 1)
        self.central = qcomb._add_shifted(odd, odd, k + 1)
        self.k = k + 1


def _palindrome(low, deg):
    # the full coefficient list of the palindrome of degree deg whose low
    # coefficients are low
    return low + low[: deg + 1 - len(low)][::-1]


def test_half_walk_matches_the_full_list_walk():
    walk, full = qcomb._Walk(), _FullWalk()
    for k in range(61):
        assert walk.k == full.k == k
        assert len(walk.low) == k * k // 2 + 1, k
        assert _palindrome(walk.low, k * k) == full.central, k
        assert walk.cen == full.cen, k
        assert walk.shifted == full.shifted, k
        walk.step()
        full.step()


def test_walk_step_rejects_a_perturbed_binomial():
    """One wrong coefficient of [2k, k] makes [2k, k] (1 - q^k) indivisible by
    1 - q^(k+1) for k >= 2, so the step's exactness certificate must raise.
    (At k <= 1 a perturbed [2k, k] can be a multiple of the true one.)"""
    rng = random.Random(2727)
    for _ in range(60):
        k = rng.randint(2, 60)
        walk = qcomb._Walk()
        for _ in range(k):
            walk.step()
        i = rng.randrange(len(walk.low))
        walk.low[i] += rng.choice([-1, 1]) * rng.randint(1, 10**6)
        before = (list(walk.low), walk.cen, walk.shifted)
        with pytest.raises(ValueError, match="inexact division"):
            walk.step()
        assert walk.k == k  # a refused step leaves the walk as it was
        assert (walk.low, walk.cen, walk.shifted) == before


def test_chain_info_counts_walk_steps_and_stored_residues(monkeypatch):
    _fresh_chain(monkeypatch)
    assert qcomb.chain_info() == (0, 0)
    catalan_residue(40)
    assert qcomb.chain_info() == (40, 40)
    central_residue(30)
    catalan_residue(30)
    assert qcomb.chain_info() == (40, 40)  # no re-walk
    for n in range(1, 41):
        assert len(catalan_residue(n).coeffs) <= 2 * n
        assert len(central_residue(n).coeffs) <= 2 * n


def test_chain_concurrent_callers_match_serial(monkeypatch):
    accessors = (catalan_sum, central_sum, shifted_central_sum, q_catalan)
    accessors += (catalan_residue, central_residue)  # the shared walk
    requests = [(f, n) for f in accessors for n in range(1, 41)]
    _fresh_chain(monkeypatch)
    serial = {(f.__name__, n): f(n) for f, n in requests}

    start = threading.Barrier(8)

    def run(seed):
        order = list(requests)
        random.Random(seed).shuffle(order)
        start.wait(timeout=60)  # all eight threads enter the empty chain together
        return [((f.__name__, n), f(n)) for f, n in order]

    _fresh_chain(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the chain steps
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for result in results:
        assert dict(result) == serial
