"""Acceptance criteria, each at its full stated sweep and tolerance.

Every test prints one PASS line (visible with pytest -s); a failure would
surface the offending parameters and witness instead.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from qcatalan import charsum, congruence, qcomb, qdsl, rootid
from qcatalan.cyclotomic import CycloElem


def _sweep(reports):
    bad = [r for r in reports if not r.passed]
    assert not bad, "\n".join(r.summary() for r in bad)
    return len(reports)


def test_criterion_01_main_congruence_to_120():
    start = time.perf_counter()
    count = _sweep([congruence.verify_main_theorem(n) for n in range(3, 121, 3)])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime target exceeded: {elapsed:.1f}s"
    print(f"PASS criterion 1: main-phi2 exact for n=3..120 step 3 "
          f"({count} cases, {elapsed:.1f}s)")


def test_criterion_02_sharper_congruence_to_121():
    count = _sweep(
        [congruence.verify_liu_mod_phi2(n) for n in range(2, 122) if n % 3 != 0]
    )
    print(f"PASS criterion 2: liu-phi2 exact for 2<=n<=121, 3 not dividing n "
          f"({count} cases)")


def test_criterion_03_single_power_congruence_to_200():
    count = _sweep([congruence.verify_tauraso_mod_phi(n) for n in range(2, 201)])
    print(f"PASS criterion 3: tauraso-phi exact for 2<=n<=200 ({count} cases)")


def test_criterion_04_central_sum_congruence_to_100():
    count = _sweep([congruence.verify_liu_petrov(n) for n in range(2, 101)])
    print(f"PASS criterion 4: liu-petrov exact for 2<=n<=100 incl. multiples "
          f"of 3 ({count} cases)")


def test_phi_suites_memory_at_150():
    # the child's own peak RSS: an intermediate interpreter runs it as its
    # only child and prints RUSAGE_CHILDREN (ru_maxrss is in KiB on Linux)
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["-m", "qcatalan", "verify", "tauraso-phi", "liu-phi2", "main-phi2",
            "liu-petrov", "--n-max", "150", "--json"]
    runner = (
        "import resource, subprocess, sys; "
        "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    done = subprocess.run(
        [sys.executable, "-c", runner, sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    code, maxrss_kib = map(int, done.stdout.split())
    assert code == 0
    peak_mb = maxrss_kib / 1024
    assert peak_mb < 100.0, f"phi suites at n <= 150 peaked at {peak_mb:.1f} MB"
    print(f"PASS phi suites at --n-max 150 in {peak_mb:.1f} MB peak RSS")


def test_criterion_05_exact_identity_to_30():
    # integrality assertions live inside the suite; any firing would raise
    count = _sweep([congruence.verify_tauraso13_identity(n) for n in range(1, 31)])
    print(f"PASS criterion 5: tauraso13 exact polynomial identity for "
          f"1<=n<=30 ({count} cases)")


def test_criterion_06_lucas_500_random_tuples():
    rng = random.Random(987654321)
    reports = []
    for _ in range(500):
        n = rng.randint(2, 30)
        reports.append(
            congruence.verify_lucas_qbinom(
                rng.randint(0, 4),
                rng.randint(0, n - 1),
                rng.randint(0, 4),
                rng.randint(0, n - 1),
                n,
            )
        )
    count = _sweep(reports)
    print(f"PASS criterion 6: lucas exact on {count} random tuples, n<=30")


def test_criterion_07_central_and_row_to_40():
    reports = []
    for n in range(2, 41):
        for k in range(1, n):
            reports.append(congruence.verify_central_qbinom_congruence(n, k))
            reports.append(congruence.verify_row_qbinom_congruence(n, k))
    count = _sweep(reports)
    print(f"PASS criterion 7: central/row cleared congruences exact for "
          f"2<=n<=40, all k ({count} checks)")


def test_criterion_08_root_identity_full_orbits_to_40():
    # pinned base case: n = 1, j = 1 gives lhs = rhs = (-1 - 2q)/3 in Q(zeta_3)
    from qcatalan.cyclotomic import _field_sum

    lhs = _field_sum(3, [(-1, 1, 2, 1)])  # -q / (1 - q^2)
    expected = CycloElem(3, [-1, -2], 3)
    assert lhs.value() == expected
    rhs = CycloElem.from_rational(3, Fraction(1, 3)) + CycloElem.root_power(3, 2) * Fraction(4, 6)
    assert rhs == expected

    reports = []
    for n in range(1, 41):
        for j in rootid.galois_orbit(3 * n):
            reports.append(rootid.verify_main3n(n, j))
    count = _sweep(reports)
    print(f"PASS criterion 8: main3n exact for n<=40 over full Galois orbits "
          f"({count} cases), base value (-1-2q)/3 confirmed")


def test_criterion_09_rearrangement_certified_to_12():
    reports = [rootid.verify_mid_identity(n) for n in range(2, 13)]
    count = _sweep(reports)
    points = sum(r.params["points"] for r in reports)
    print(f"PASS criterion 9: mid certified for 2<=n<=12 by its power series "
          f"through the degree bound ({count} cases, {points} coefficients)")


def test_criterion_10_log_derivative_sum_to_30():
    rng = random.Random(321)
    reports = []
    for m in range(1, 31):
        done = 0
        while done < 5:
            z = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            if z == 0 or z**m == 1:
                continue
            reports.append(rootid.verify_extan(m, z))
            done += 1
    count = _sweep(reports)
    print(f"PASS criterion 10: extan exact for m<=30, 5 rational z each "
          f"({count} cases)")


def test_criterion_11_parity_branches_to_20():
    reports = []
    for n in range(1, 21):
        for j in rootid.galois_orbit(3 * n):
            reports.append(rootid.verify_explicit(n, j))
            reports.append(rootid.verify_main3n_new(n, j))
    for N in range(1, 21):
        for j in rootid.galois_orbit(6 * N):
            reports.append(rootid.verify_even_case(N, j))
            reports.append(rootid.verify_aux_properties(N, j, "even"))
        for j in rootid.galois_orbit(6 * N - 3):
            reports.append(rootid.verify_odd_case(N, j))
            reports.append(rootid.verify_aux_properties(N, j, "odd"))
    count = _sweep(reports)
    print(f"PASS criterion 11: explicit/main3n-new/even/odd/aux exact for "
          f"N<=20, all admissible j ({count} checks)")


def test_criterion_12_partial_fractions_20_points():
    reports = [rootid.verify_pfd(kind) for kind in ("pfd3", "pfd6", "cube")]
    assert all(r.params["points"] >= 20 for r in reports)
    count = _sweep(reports)
    print(f"PASS criterion 12: pfd3/pfd6/cube exact at >=20 rational points "
          f"({count} identities)")


def test_criterion_13_trig_to_200():
    count = _sweep([rootid.verify_trig_identity(N, 1e-8) for N in range(2, 201)])
    print(f"PASS criterion 13: trig |sum| < 1e-8 for 2<=N<=200 ({count} cases)")


def test_criterion_14_sawtooth_to_12():
    reports = []
    for N in range(2, 13):
        for k in range(1, 2 * N - 1):
            reports.append(rootid.verify_sawtooth(N, 1, k))
    count = _sweep(reports)
    print(f"PASS criterion 14: sawtooth exact for N<=12, all valid k, j=1 "
          f"({count} cases)")


def test_criterion_15_character_sums_to_49():
    reports = []
    float_reports = []
    for m in range(5, 50, 2):
        if m % 3 == 0:
            continue
        N = (m + 1) // 2
        for chi in charsum.character_group(m):
            if chi.is_principal():
                continue
            reports.append(charsum.verify_taoconj(N, chi, "exact"))
            float_reports.append(charsum.verify_taoconj(N, chi, "float", 1e-9))
    count = _sweep(reports)
    fcount = _sweep(float_reports)
    assert count == fcount
    print(f"PASS criterion 15: taoconj exact and float(<1e-9) for every "
          f"non-principal character, odd m<=49, 3 not dividing m ({count} "
          f"characters)")


def test_criterion_16_maj_oracle():
    for k in range(0, 9):
        assert qcomb.q_catalan(k) == qcomb.q_catalan_maj_oracle(k), k
    for k in range(0, 21):
        assert qcomb.q_catalan(k).eval(1) == comb(2 * k, k) // (k + 1), k
    print("PASS criterion 16: maj enumeration matches C_k for k<=8; "
          "C_k(1) is the k-th Catalan number for k<=20")


def test_criterion_17_dsl_corpus():
    entries = qdsl.shipped_corpus()
    assert len(entries) >= 20
    reports = [qdsl.run_corpus_entry(entry) for entry in entries]
    bad = [
        (e.line_no, r.witness) for e, r in zip(entries, reports) if not r.passed
    ]
    assert not bad, bad
    cases = sum(r.params["cases"] for r in reports)

    # overlap with the dedicated suites on shared parameters (n <= 15)
    for n in range(2, 16):
        assert congruence.verify_tauraso_mod_phi(n).passed
        if n % 3 == 0:
            assert congruence.verify_main_theorem(n).passed
        else:
            assert congruence.verify_liu_mod_phi2(n).passed
        assert congruence.verify_liu_petrov(n).passed
        assert congruence.verify_tauraso13_identity(n).passed
    for n in range(1, 9):
        for j in rootid.galois_orbit(3 * n):
            assert rootid.verify_main3n(n, j).passed
    for kind in ("pfd3", "pfd6", "cube"):
        assert rootid.verify_pfd(kind).passed
    print(f"PASS criterion 17: {len(entries)} corpus identities "
          f"({cases} instances) agree with the dedicated suites")
