"""q-combinatorial objects: Gaussian binomials, MacMahon q-Catalan
polynomials, the ballot/major-index oracle, the mod-3 Legendre symbol, and
the partial sums used by the congruence suites, walked one k at a time;
the suites keep only their residues.  The walk holds the palindrome
[2k, k] by its low half only, steps on low halves, and certifies each
step's exact division in O(k) coefficients.

All coefficient arithmetic is exact; the Gaussian binomials are integer
polynomials and stay on the integer fast path throughout.

gaussian_binomial is a bounded memo (functools.lru_cache, 256 entries), as
is q_catalan; the Poly results are immutable and shared by every caller.
No passing q-binomial check calls it: lucas, central-binom and row-binom
evaluate their binomials at q = zeta_n (+ eps) from the product formula.
Its callers are the qdsl qbin / qcat closures, whose sums ask for the same
[N, K] across terms and lines (its hits), q_catalan, the tauraso13 right
side and the failure witnesses of the three q-binomial suites.
"""

from __future__ import annotations

import sys
import threading
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import add, sub
from typing import Iterator, Sequence

from .cyclotomic import fold_mod_cyclic
from .ring import Poly, _div_one_minus, _mul_one_minus

# ---------------------------------------------------------------------------
# Gaussian binomials


@lru_cache(maxsize=256)
def gaussian_binomial(n: int, k: int) -> Poly:
    """The Gaussian binomial [n, k], zero outside 0 <= k <= n.

    Computed from the defining quotient of q-shifted factorials, taken as
    a product of binomial quotients with every division checked exact:

        [n, k] = prod_{j=1}^{k} (1 - q^{n-k+j}) / (1 - q^j).

    >>> gaussian_binomial(4, 2)
    Poly('1 + q + 2*q^2 + q^3 + q^4')
    >>> gaussian_binomial(3, 5)
    Poly('0')
    """
    if k < 0 or n < 0 or k > n:
        return Poly.zero()
    k = min(k, n - k)  # [n, k] = [n, n - k]: the shorter product
    out = [1]
    for j in range(1, k + 1):
        out = _mul_one_minus(out, n - k + j)
        out = _div_one_minus(out, j)
    return Poly._trusted(out)


def legendre3(a: int) -> int:
    """The Legendre symbol (a/3): 0, 1, -1 for a = 0, 1, 2 mod 3."""
    return (0, 1, -1)[a % 3]


# ---------------------------------------------------------------------------
# MacMahon q-Catalan polynomials and the partial sums of the left-hand sides
#
# Since C_k = [2k, k] - q[2k, k+1], sum_{k<n} q^k C_k is the central sum
# minus the shifted one.  A walk holds [2k, k] and both running sums over
# j < k.  A step takes [2k, k+1] = [2k, k] (1 - q^k) / (1 - q^{k+1}) by a
# checked exact division, then [2k+1, k+1] = [2k, k] + q^{k+1} [2k, k+1]
# (q-Pascal) and [2k+2, k+1] = (1 + q^{k+1}) [2k+1, k+1] (q-Pascal and the
# symmetry [2k+1, k] = [2k+1, k+1]).
# The three binomials are palindromes, of degrees k^2, k^2 - 1 and k^2 + k,
# and each of those operations fills a coefficient from lower ones only.
# So the walk keeps [2k, k] only up to its middle, runs every step on such
# low halves (a few entries past the middle where the next product reads
# them), and mirrors a binomial to full length only to add it into a
# running sum, which is no palindrome.
# The division is certified whole, in O(k): with p = [2k, k] (1 - q^k) and
# u the palindrome on the quotient's low half, r = u (1 - q^{k+1}) - p is
# antipalindromic of degree k^2 + k and zero on the low half by
# construction, so it is zero if it is zero up to its middle; there the
# quotient's recursion must continue as u's mirror image.
# The suites need a sum at n only mod Phi_n^e, e <= 2, which divides
# (q^n - 1)^2.  So one shared walk, under a lock, stores for each n only
# the two sums folded mod (q^n - 1)^2; the fold is linear, so the Catalan
# fold is the central fold minus the shifted one.


def _add_shifted(a: list[int], b: list[int], k: int, op=add) -> list[int]:
    """a + q^k * b on raw coefficient lists; a - q^k * b when op is sub."""
    bb = [0] * k + b if k else b
    out = list(map(op, a, bb))
    out += a[len(bb):]  # at most one of the two tails is nonempty
    out += [op(0, c) for c in bb[len(a):]]
    return out


def _window(low: list[int], deg: int, lo: int, hi: int) -> list[int]:
    """Coefficients lo <= i < hi of the palindrome of degree deg whose
    coefficients below len(low) are low, zero outside 0..deg; with lo = -s
    they are those of q^s times it.  low holds at least the coefficients up
    to deg // 2 and at most deg + 1 of them."""
    out = [0] * -lo
    out += low[max(lo, 0):hi]
    a, b = max(lo, len(low)), min(hi, deg + 1)
    if a < b:  # c_i = c_(deg - i), read down from low[deg - a]
        stop = deg - b
        out += low[deg - a : stop if stop >= 0 else None : -1]
    out += [0] * (hi - max(lo, deg + 1))
    return out


class _Walk:
    """The chain after k steps: low, the coefficients of [2k, k] up to
    q^(k^2 // 2), its middle; the running sums over j < k of q^j [2j, j]
    and q^{j+1} [2j, j+1]; and residues[n - 1], the folds of the central
    and the Catalan sum at each n <= k the shared walk stored.

    step() works on low halves and certifies its division by 1 - q^{k+1}:
    if low is not the low half of a [2k, k] that the division leaves exact,
    it raises ValueError and leaves the walk as it was."""

    def __init__(self):
        self.k, self.low, self.cen, self.shifted = 0, [1], [], []
        self.residues: list[tuple[Poly, Poly]] = []

    def step(self) -> None:
        k, low, t = self.k, self.low, self.k + 1
        deg, top = k * k, k * k + k  # degrees of [2k, k] and [2k+1, k+1]
        half, mid = (deg + 1) // 2, top // 2 + 1  # low lengths of [2k, k+1], [2k+1, k+1]
        central = _window(low, deg, 0, mid)
        # p = [2k, k] (1 - q^k) and the recursion u_i = p_i + u_(i-t) of the
        # quotient by 1 - q^t, both through q^(top // 2), the middle of r
        p = central[:k]
        p += map(sub, central[k:], central)
        for r in range(min(t, mid)):
            p[r::t] = accumulate(p[r::t])
        # [2k, k+1] is p[:half]; its factor 1 - q^0 makes it zero at k = 0.
        # r is zero up to its middle iff the recursion goes on past half as
        # the mirror image of p[:half]
        above, past = p, p[half:]
        del above[half:]
        if past != _window(above, deg - 1, half, mid):
            raise ValueError("inexact division by 1 - q^t")
        self.cen = _add_shifted(self.cen, _window(low, deg, -k, deg + 1), 0)
        self.shifted = _add_shifted(self.shifted, _window(above, deg - 1, -t, deg), 0)
        odd = central[:t]  # [2k+1, k+1], through its middle and on to the next one
        odd += map(add, central[t:], above)
        odd += _window(odd, top, mid, (top + k + 1) // 2 + 1)
        low = odd[:t]  # [2k+2, k+1]
        low += map(add, odd[t:], odd)
        self.low, self.k = low, k + 1


_chain_lock = threading.Lock()
_walk = _Walk()
ChainInfo = namedtuple("ChainInfo", "steps residues")


def chain_info() -> ChainInfo:
    """The shared walk's steps and the number of n whose residues it stores."""
    with _chain_lock:
        return ChainInfo(_walk.k, len(_walk.residues))


def _check_steps(n: int) -> None:
    """A walk to n needs n >= 1; an n above sys.maxsize raises OverflowError
    up front, since the walk's tables could never hold it."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > sys.maxsize:
        raise OverflowError("cannot fit 'int' into an index-sized integer")


def _residues(n: int) -> tuple[Poly, Poly]:
    _check_steps(n)
    with _chain_lock:
        walk = _walk
        while walk.k < n:
            walk.step()
            cen = fold_mod_cyclic(walk.cen, walk.k, 2)
            cat = _add_shifted(cen, fold_mod_cyclic(walk.shifted, walk.k, 2), 0, sub)
            walk.residues.append((Poly._trusted(cen), Poly._trusted(cat)))
        return walk.residues[n - 1]


def central_residue(n: int) -> Poly:
    """central_sum(n) modulo (q^n - 1)^2, of degree below 2n."""
    return _residues(n)[0]


def catalan_residue(n: int) -> Poly:
    """catalan_sum(n) modulo (q^n - 1)^2, of degree below 2n."""
    return _residues(n)[1]


@lru_cache(maxsize=256)
def q_catalan(k: int) -> Poly:
    """MacMahon's q-Catalan polynomial C_k = [2k, k] - q*[2k, k+1],
    computed as [2k, k] (1 - q) / (1 - q^{k+1}).

    >>> q_catalan(3)
    Poly('1 + q^2 + q^3 + q^4 + q^6')
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    central = list(gaussian_binomial(2 * k, k).coeffs)
    return Poly._trusted(_div_one_minus(_mul_one_minus(central, 1), k + 1))


def _walked(n: int) -> _Walk:
    """A fresh walk of n steps, apart from the shared one."""
    _check_steps(n)
    walk = _Walk()
    for _ in range(n):
        walk.step()
    return walk


def catalan_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^k C_k(q).

    >>> catalan_sum(3)
    Poly('1 + q + q^2 + q^4')
    >>> catalan_sum(4) == central_sum(4) - shifted_central_sum(4)
    True
    """
    walk = _walked(n)
    return Poly._trusted(_add_shifted(walk.cen, walk.shifted, 0, sub))


def central_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^k [2k, k]."""
    return Poly._trusted(_walked(n).cen)


def shifted_central_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^{k+1} [2k, k+1]."""
    return Poly._trusted(_walked(n).shifted)


# ---------------------------------------------------------------------------
# ballot sequences and the major index

MAJ_ORACLE_BOUND = 10  # Catalan(10) = 16796 words; ample for cross-checks


def ballot_words(k: int) -> Iterator[tuple[int, ...]]:
    """All 0/1 ballot sequences with k zeros and k ones.

    Every prefix of a ballot sequence has at least as many 0s as 1s; the
    enumeration backtracks with that invariant enforced incrementally.
    """
    word: list[int] = []

    def extend(zeros: int, ones: int):
        if zeros + ones == 2 * k:
            yield tuple(word)
            return
        if zeros < k:
            word.append(0)
            yield from extend(zeros + 1, ones)
            word.pop()
        if ones < zeros:
            word.append(1)
            yield from extend(zeros, ones + 1)
            word.pop()

    return extend(0, 0)


def major_index(word: Sequence[int]) -> int:
    """Sum of the 1-based positions i with word[i] > word[i+1]."""
    return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def q_catalan_maj_oracle(k: int) -> Poly:
    """Brute-force maj generating polynomial over all ballot words of length 2k.

    >>> q_catalan_maj_oracle(2)
    Poly('1 + q^2')
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k > MAJ_ORACLE_BOUND:
        raise ValueError(f"enumeration bound exceeded: {k} > {MAJ_ORACLE_BOUND}")
    coeffs = [0] * (k * k + 1)
    for word in ballot_words(k):
        coeffs[major_index(word)] += 1
    return Poly(coeffs)
