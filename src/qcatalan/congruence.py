"""Polynomial congruence suites: statements of the form A = B (mod Phi_n^e)
reduced to "the remainder of A - B is the zero polynomial", plus the exact
shifted-central-binomial identity that links them.  The q-binomial
congruences (lucas, central-binom, row-binom) are judged at q = zeta_n + eps
from the product formula of the Gaussian binomial, and build the binomial
only to render a failure.

Each suite returns a VerificationReport; precondition violations raise
ValueError instead of producing a report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable, Mapping, Optional, Sequence

from .cyclotomic import (
    _eps_congruent,
    _field_sum,
    phi_power_divides,
    reduce_mod_phi_power,
)
from .qcomb import (
    catalan_residue,
    central_residue,
    gaussian_binomial,
    legendre3,
    q_catalan,
    q_catalan_maj_oracle,
    shifted_central_sum,
)
from .ring import Coeff, Poly

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
ERROR = "error"

# one encoder for every report line; json.dumps with sort_keys builds one per call
_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Structured outcome of one check.

    witness is present exactly when the check failed or raised; it renders
    the nonzero residue (or a diagnostic, or the exception) for inspection.
    """

    suite_id: str
    params: Mapping[str, int]
    status: str
    witness: Optional[str] = None
    elapsed: float = 0.0

    def __post_init__(self):
        if self.status not in (PASS, FAIL, SKIPPED, ERROR):
            raise ValueError(f"bad status {self.status!r}")
        if self.status in (FAIL, ERROR) and not self.witness:
            raise ValueError("failing reports carry a nonzero witness")
        if self.status == PASS and self.witness is not None:
            raise ValueError("passing reports carry no witness")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite_id,
            "params": dict(self.params),
            "status": self.status,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj

    def to_json(self) -> str:
        return _ENCODER.encode(self.to_json_obj())

    def summary(self) -> str:
        ps = " ".join(f"{k}={v}" for k, v in self.params.items())
        line = f"{self.status.upper():4s} {self.suite_id} {ps} ({self.elapsed * 1000.0:.1f} ms)"
        if self.witness is not None:
            line += f" witness: {self.witness}"
        return line


def run_check(
    suite_id: str, params: Mapping[str, int], witness_fn: Callable[[], Optional[str]]
) -> VerificationReport:
    """Time a check; a None witness means pass."""
    start = time.perf_counter()
    witness = witness_fn()
    elapsed = time.perf_counter() - start
    if witness is None:
        return VerificationReport(suite_id, dict(params), PASS, None, elapsed)
    return VerificationReport(suite_id, dict(params), FAIL, witness, elapsed)


def _residue_witness(
    residue: Poly, n: int, e: int, rhs: Sequence[tuple[Coeff, int]] = ()
) -> Optional[str]:
    """None if Phi_n^e divides residue - sum c q^t over the monomials (c, t)
    of rhs (c an int or a Fraction), else the remainder of that difference
    mod Phi_n^e, rendered.

    Each monomial is folded mod (q^n - 1)^2, q^(a*n + r) = (1 - a) q^r +
    a q^(n + r) for r < n.  Phi_n^e divides (q^n - 1)^2 for e <= 2, so the
    verdict and the (unique) remainder are those of the unfolded difference.
    The zero test runs on D times the difference, D the lcm of the c
    denominators, which is a unit mod Phi_n^e.
    """
    if rhs and e > 2:
        raise ValueError("monomials fold mod (q^n - 1)^2, so e must be 1 or 2")
    den = lcm(*(c.denominator for c, _ in rhs))
    diff = [c * den for c in residue.coeffs] if den > 1 else list(residue.coeffs)
    if rhs:
        diff += [0] * (2 * n - len(diff))
        for c, t in rhs:
            a, r = divmod(t, n)
            c = c.numerator * (den // c.denominator)
            diff[r] -= (1 - a) * c
            diff[n + r] -= a * c
    if phi_power_divides(diff, n, e):
        return None
    rem = reduce_mod_phi_power(Poly(diff), n, e)
    return (rem * Fraction(1, den) if den > 1 else rem).render()


# ---------------------------------------------------------------------------
# the q-Catalan partial-sum congruences
#
# The four suites read the left side as the qcomb walk stores it, folded
# mod (q^n - 1)^2, and give _residue_witness the right side as monomials,
# which it folds the same way.  Only a failure reduces, for its witness.


def verify_tauraso_mod_phi(n: int) -> VerificationReport:
    """sum q^k C_k over k < n collapses to one monomial mod Phi_n:
    q^floor(n/3) when n = 0,1 (mod 3) and -1 - q^((2n-1)/3) when n = 2.
    The left side is read folded mod (q^n - 1)^2, a multiple of Phi_n.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def witness() -> Optional[str]:
        if n % 3 == 2:
            assert (2 * n - 1) % 3 == 0
            rhs = [(-1, 0), (-1, (2 * n - 1) // 3)]
        else:
            rhs = [(1, n // 3)]
        return _residue_witness(catalan_residue(n), n, 1, rhs)

    return run_check("tauraso-phi", {"n": n}, witness)


def verify_liu_mod_phi2(n: int) -> VerificationReport:
    """The sharper mod Phi_n^2 form of the q-Catalan sum for n not divisible
    by 3: q^((n^2-1)/3) - (n-1)/3*(q^n-1) when n = 1 (mod 3), and
    -q^((n^2-1)/3) - q^(n(2n-1)/3) when n = 2 (mod 3).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 3 == 0:
        raise ValueError("n divisible by 3 belongs to the main-phi2 suite")
    assert (n * n - 1) % 3 == 0

    def witness() -> Optional[str]:
        if n % 3 == 1:
            assert (n - 1) % 3 == 0
            c = (n - 1) // 3
            rhs = [(1, (n * n - 1) // 3), (-c, n), (c, 0)]
        else:
            assert (n * (2 * n - 1)) % 3 == 0
            rhs = [(-1, (n * n - 1) // 3), (-1, n * (2 * n - 1) // 3)]
        return _residue_witness(catalan_residue(n), n, 2, rhs)

    return run_check("liu-phi2", {"n": n}, witness)


def verify_main_theorem(n: int) -> VerificationReport:
    """The missing case 3 | n of the q-Catalan sum mod Phi_n^2:

        sum_{k<n} q^k C_k = q^(n(2n+1)/3)
                            + (1/3)(q^n - 1)(2 + (n+1) q^(2n/3))   (mod Phi_n^2).
    """
    if n < 3 or n % 3 != 0:
        raise ValueError("need a positive multiple of 3")

    def witness() -> Optional[str]:
        c = Fraction(n + 1, 3)
        rhs = [(1, n * (2 * n + 1) // 3), (Fraction(2, 3), n), (Fraction(-2, 3), 0)]
        rhs += [(c, 5 * n // 3), (-c, 2 * n // 3)]
        return _residue_witness(catalan_residue(n), n, 2, rhs)

    return run_check("main-phi2", {"n": n}, witness)


def verify_liu_petrov(n: int) -> VerificationReport:
    """sum_{k<n} q^k [2k,k] = (n/3) * q^((n^2-1)/3) (mod Phi_n^2), with the
    Legendre symbol (n/3); for 3 | n the right side is the zero polynomial
    and the fractional exponent never materialises.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def witness() -> Optional[str]:
        sign = legendre3(n)
        rhs = [(sign, (n * n - 1) // 3)] if sign else []
        return _residue_witness(central_residue(n), n, 2, rhs)

    return run_check("liu-petrov", {"n": n}, witness)


# ---------------------------------------------------------------------------
# exact identity for the shifted central binomial sum


def _tauraso13_rhs(n: int) -> Poly:
    rhs = Poly.zero()
    for k in range(1, n + 1):
        t = boundary_term(k)
        if not t.is_zero():  # [2n, n + k] is only built when T_k != 0
            rhs = rhs + t * gaussian_binomial(2 * n, n + k)
    return rhs


def verify_tauraso13_identity(n: int) -> VerificationReport:
    """The exact polynomial identity

        sum_{k=0}^{n-1} q^{k+1} [2k, k+1]
            = sum_{k=1}^{n} ((k-1)/3) q^{(2k^2 - k((k-1)/3))/3} [2n, n+k],

    where ((k-1)/3) is the Legendre symbol, so the k-th term is
    T_k [2n, n+k] with T_k = boundary_term(k); terms with (k-1) = 0
    (mod 3) vanish.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def witness() -> Optional[str]:
        diff = shifted_central_sum(n) - _tauraso13_rhs(n)
        return None if diff.is_zero() else diff.render()

    return run_check("tauraso13", {"n": n}, witness)


# ---------------------------------------------------------------------------
# q-binomial congruences


def verify_maj_oracle(k: int) -> VerificationReport:
    """C_k equals the exhaustive maj generating polynomial over ballot
    words of length 2k, and C_k(1) is the ordinary Catalan number."""

    def witness() -> Optional[str]:
        ck = q_catalan(k)
        oracle = q_catalan_maj_oracle(k)
        if ck != oracle:
            return f"maj oracle mismatch: {(ck - oracle).render()}"
        catalan = comb(2 * k, k) // (k + 1)
        if ck.eval(1) != catalan:
            return f"C_k(1) = {ck.eval(1)} != {catalan}"
        return None

    return run_check("maj-oracle", {"k": k}, witness)


def _binomial_runs(top: int, k: int) -> Optional[tuple[list[range], list[range]]]:
    """[top, k] as the runs (up, down) of its product formula
    prod_{i<=k} (1 - q^(top-k+i)) / (1 - q^i), taken at min(k, top - k);
    None when [top, k] = 0, that is k < 0 or k > top."""
    if k < 0 or k > top:
        return None
    k = min(k, top - k)
    return [range(top - k + 1, top + 1)], [range(1, k + 1)]


def verify_lucas_qbinom(a: int, b: int, c: int, d: int, n: int) -> VerificationReport:
    """The q-analogue of Lucas' congruence with canonical digits b, d < n:

        [an+b, cn+d] = C(a, c) * [b, d]   (mod Phi_n).

    Both binomials are products of factors 1 - q^s, evaluated at q = zeta_n
    by cyclotomic._eps_product.  [b, d] has no factor that vanishes there
    (b < n), so when it is not 0 it is a unit, and the check compares the
    quotient [an+b, cn+d] / [b, d] with C(a, c), cross-multiplied.
    Factors with equal s mod n cancel; those with n | s cancel in pairs to the
    rational prod s / prod s', and one left over in the numerator makes the
    value 0.  A side that is 0 leaves the other to be 0 mod Phi_n.  Only a
    failing check builds the two Gaussian binomials, for its witness.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if a < 0 or c < 0 or not (0 <= b < n) or not (0 <= d < n):
        raise ValueError("need a, c >= 0 and 0 <= b, d < n")

    def witness() -> Optional[str]:
        scale = comb(a, c)
        big = _binomial_runs(a * n + b, c * n + d)
        small = _binomial_runs(b, d) if scale else None
        if big and small:  # [an+b, cn+d] / [b, d] = C(a, c)
            up, down = big[0] + small[1], big[1] + small[0]
            holds = _eps_congruent(n, 1, up, down, [(scale, 0)])
        else:
            runs = big or small
            holds = runs is None or _eps_congruent(n, 1, *runs, [])
        if holds:
            return None
        lhs = gaussian_binomial(a * n + b, c * n + d)
        rhs = gaussian_binomial(b, d) * comb(a, c)
        return _residue_witness(lhs - rhs, n, 1)

    return run_check("lucas", {"a": a, "b": b, "c": c, "d": d, "n": n}, witness)


def verify_central_qbinom_congruence(n: int, k: int) -> VerificationReport:
    """[2n, n+k] = (q^n - 1) * 2 (-1)^k q^(-k(k-1)/2) / (1 - q^k) mod Phi_n^2,
    checked in the denominator-cleared form

        [2n, n+k] (1 - q^k) = 2 (-1)^k (q^n - 1) q^((-k(k-1)/2) mod n).

    Clearing is an equivalence: n does not divide k, so 1 - q^k is a unit
    modulo Phi_n^2; and the exponent may be normalised mod n because the
    right side carries the factor q^n - 1, which kills the difference
    q^(t+n) - q^t modulo Phi_n^2.

    The left side is a product of factors 1 - q^s, evaluated at
    q = zeta_n + eps by cyclotomic._eps_product: its one factor with n | s,
    1 - q^(2n), is eps times a unit, so it is eps (num / den + O(eps)).
    Cross-multiplied with the right side, both eps coefficients must vanish
    at zeta_n: the eps^0 one asks the right side to vanish there, and the
    eps one compares num with den times the right side's derivative, which
    sees a change by a multiple of Phi_n that Phi_n^2 does not divide.
    Only a failing check builds [2n, n+k], for its witness.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= k <= n - 1):
        raise ValueError("need 1 <= k <= n-1")

    def witness() -> Optional[str]:
        t = (-(k * (k - 1) // 2)) % n
        c = 2 * (-1) ** k
        rhs = [(c, n + t), (-c, t)]
        up, down = _binomial_runs(2 * n, n + k)
        if _eps_congruent(n, 2, up + [range(k, k + 1)], down, rhs):
            return None
        lhs = gaussian_binomial(2 * n, n + k) * (1 - Poly.monomial(1, k))
        return _residue_witness(lhs, n, 2, rhs)

    return run_check("central-binom", {"n": n, "k": k}, witness)


def verify_row_qbinom_congruence(n: int, k: int) -> VerificationReport:
    """[n-1, k-1] = (-1)^(k-1) q^(-k(k-1)/2) mod Phi_n, in the cleared form

        [n-1, k-1] * q^(k(k-1)/2 mod n) = (-1)^(k-1)   (mod Phi_n).

    The left side is evaluated at q = zeta_n by cyclotomic._eps_product,
    where no factor vanishes and factors with equal s mod n cancel, and
    cross-multiplied with the right side.  Only a failing check builds
    [n-1, k-1], for its witness.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not (1 <= k <= n - 1):
        raise ValueError("need 1 <= k <= n-1")

    def witness() -> Optional[str]:
        shift = (k * (k - 1) // 2) % n
        rhs = [((-1) ** (k - 1), 0)]
        if _eps_congruent(n, 1, *_binomial_runs(n - 1, k - 1), rhs, shift):
            return None
        lhs = gaussian_binomial(n - 1, k - 1).shift(shift)
        return _residue_witness(lhs, n, 1, rhs)

    return run_check("row-binom", {"n": n, "k": k}, witness)


# ---------------------------------------------------------------------------
# the reduction chain behind the main congruence
#
# The exact identity above, the central congruence, and reindexing over the
# residue of k mod 3 combine into: modulo Phi_n^2,
#
#   sum_{k=0}^{n-1} q^{k+1} [2k, k+1]
#     = T_n - 2 (q^n - 1) ( sum_{k<=floor(n/3)}   (-1)^k q^{k(3k-1)/2} / (1 - q^{3k-1})
#                         + sum_{k<=floor((n-1)/3)} (-1)^k q^{k(3k+5)/2} / (1 - q^{3k}) )
#
# with the boundary monomial T_n = ((n-1)/3) q^((2n^2 - n((n-1)/3))/3).
# Phi_n^2 divides (q^n - 1) Phi_n, so (q^n - 1) X mod Phi_n^2 depends only
# on X mod Phi_n: the bracket is summed in Q(zeta_n) by
# cyclotomic._field_sum, and any representative of that sum will do.  The
# left side is the shifted sum as the qcomb walk stores it, folded
# mod (q^n - 1)^2.  The k = 0 term of the n-term form, -[2n, n], cannot be
# traded for T_n (their sum is nonzero mod Phi_n^2), which is why keeping
# T_n matters.


def _chain_sums(n: int) -> list[tuple[int, int, int, int]]:
    """The bracketed pair of sums as terms (c, e, s, t) = c q^e / (1 - t q^s);
    every s lies in [1, n - 1], so no denominator vanishes at zeta_n.  The
    one definition of the paper's central pair of sums: rootid takes it
    at n = 3N for main3n (q = x^j) and for mid (q = w^2)."""
    terms = [
        ((-1) ** k, k * (3 * k - 1) // 2, 3 * k - 1, 1) for k in range(1, n // 3 + 1)
    ]
    terms += [
        ((-1) ** k, k * (3 * k + 5) // 2, 3 * k, 1) for k in range(1, (n - 1) // 3 + 1)
    ]
    return terms


def boundary_term(n: int) -> Poly:
    """T_n: the k = n term of the exact identity's right-hand side."""
    sign = legendre3(n - 1)
    if sign == 0:
        return Poly.zero()
    num = 2 * n * n - n * sign
    assert num % 3 == 0
    return Poly.monomial(sign, num // 3)


def verify_reduction_chain(n: int) -> VerificationReport:
    """Check the chain congruence above (with the boundary monomial T_n
    kept, not silently traded against the dropped k = 0 term)."""
    if n < 2:
        raise ValueError("need n >= 2")

    def witness() -> Optional[str]:
        acc = _field_sum(n, _chain_sums(n))
        sums = Poly(acc.vec) * Fraction(1, acc.den)
        rhs = boundary_term(n) - (Poly.monomial(1, n) - 1) * sums * 2
        return _residue_witness(central_residue(n) - catalan_residue(n) - rhs, n, 2)

    return run_check("reduction-chain", {"n": n}, witness)
