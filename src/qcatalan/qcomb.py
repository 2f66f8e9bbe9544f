"""q-combinatorial objects: q-shifted factorials, Gaussian binomials,
MacMahon q-Catalan polynomials, the ballot/major-index oracle, the
mod-3 Legendre symbol, and the partial sums used by the congruence suites.

All coefficient arithmetic is exact; the Gaussian binomials are integer
polynomials and stay on the integer fast path throughout.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from operator import add, sub
from typing import Iterator, Sequence

from .ring import Poly

# ---------------------------------------------------------------------------
# raw coefficient-list kernels (integer polynomials, ascending coefficients)


def _mul_one_minus(coeffs: list[int], t: int) -> list[int]:
    """Multiply by (1 - q^t) in place-ish; returns a new list."""
    out = coeffs + [0] * t
    out[t:] = map(sub, out[t:], coeffs)
    return out


def _div_one_minus(coeffs: list[int], t: int) -> list[int]:
    """Exact division by (1 - q^t); raises if the division is inexact.

    Solving p = u * (1 - q^t) coefficientwise gives u_i = p_i + u_{i-t},
    a prefix sum along each residue class mod t.
    """
    n = len(coeffs)
    if n == 0:
        return []
    out = [0] * n
    for r in range(min(t, n)):
        out[r::t] = accumulate(coeffs[r::t])
    for i in range(max(0, n - t), n):
        if out[i]:
            raise ValueError("inexact division by 1 - q^t")
    del out[max(0, n - t):]
    return out


def q_pochhammer(s: int, n: int) -> Poly:
    """The q-shifted factorial (q^s; q)_n = prod_{i=0}^{n-1} (1 - q^{s+i}).

    >>> q_pochhammer(1, 2)
    Poly('1 - q - q^2 + q^3')
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    out = [1]
    for i in range(n):
        out = _mul_one_minus(out, s + i)
    return Poly(out)


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
    out = [1]
    for j in range(1, k + 1):
        out = _mul_one_minus(out, n - k + j)
        out = _div_one_minus(out, j)
    return Poly(out)


def legendre3(a: int) -> int:
    """The Legendre symbol (a/3): 0, 1, -1 for a = 0, 1, 2 mod 3."""
    return (0, 1, -1)[a % 3]


# ---------------------------------------------------------------------------
# MacMahon q-Catalan polynomials and the partial sums of the left-hand sides
#
# Since C_k = [2k, k] - q[2k, k+1], the Catalan partial sum
# sum_{k<n} q^k C_k is the central sum minus the shifted one, so only
# those two prefix tables are stored (row n holds the sum over k < n);
# C_k and the Catalan sums are read off them.  The central binomials grow
# incrementally by the defining product of quotients, shared across k,
#
#     [2k+2, k+1] = [2k, k] * (1 - q^{2k+1})(1 - q^{2k+2}) / (1 - q^{k+1})^2,
#
# and [2k, k+1] = [2k, k] * (1 - q^k) / (1 - q^{k+1}).  A lock keeps the
# shared tables consistent for concurrent callers.

_chain_lock = threading.Lock()
_central: list[int] = [1]  # [2k, k] for the next k, k = len(_cen_sums) - 1
_cen_sums: list[list[int]] = [[]]  # row n: sum_{k<n} q^k [2k, k]
_shifted_sums: list[list[int]] = [[]]  # row n: sum_{k<n} q^{k+1} [2k, k+1]


def _add_shifted(a: list[int], b: list[int], k: int, op=add) -> list[int]:
    """a + q^k * b on raw coefficient lists; a - q^k * b when op is sub."""
    bb = [0] * k + b
    out = list(map(op, a, bb))
    out += a[len(bb):]  # at most one of the two tails is nonempty
    out += [op(0, c) for c in bb[len(a):]]
    return out


def _sums(n: int) -> tuple[list[int], list[int]]:
    """Row n of the two prefix tables, extending both one k at a time."""
    global _central
    with _chain_lock:
        while len(_cen_sums) <= n:
            k = len(_cen_sums) - 1
            # [2k, k+1]; its factor 1 - q^0 makes it zero at k = 0
            above = _div_one_minus(_mul_one_minus(_central, k), k + 1)
            _cen_sums.append(_add_shifted(_cen_sums[k], _central, k))
            _shifted_sums.append(_add_shifted(_shifted_sums[k], above, k + 1))
            nxt = _mul_one_minus(_central, 2 * k + 1)
            nxt = _mul_one_minus(nxt, 2 * k + 2)
            nxt = _div_one_minus(nxt, k + 1)
            _central = _div_one_minus(nxt, k + 1)
        return _cen_sums[n], _shifted_sums[n]


def _catalan_row(n: int) -> list[int]:
    """sum_{k<n} q^k C_k as a raw list, possibly with trailing zeros."""
    cen, shifted = _sums(n)
    return _add_shifted(cen, shifted, 0, sub)


def q_catalan(k: int) -> Poly:
    """MacMahon's q-Catalan polynomial C_k = [2k, k] - q*[2k, k+1].

    Read off the partial sums: q^k C_k = catalan_sum(k+1) - catalan_sum(k),
    whose k lowest coefficients are zero.

    >>> q_catalan(3)
    Poly('1 + q^2 + q^3 + q^4 + q^6')
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    diff = _add_shifted(_catalan_row(k + 1), _catalan_row(k), 0, sub)
    return Poly._trusted(diff[k:])


def catalan_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^k C_k(q).

    It is central_sum(n) - shifted_central_sum(n): row n of the one stored
    prefix table minus row n of the other, on the raw coefficient lists.

    >>> catalan_sum(3)
    Poly('1 + q + q^2 + q^4')
    >>> catalan_sum(4) == central_sum(4) - shifted_central_sum(4)
    True
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return Poly._trusted(_catalan_row(n))


def central_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^k [2k, k]."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Poly._trusted(list(_sums(n)[0]))


def shifted_central_sum(n: int) -> Poly:
    """The partial sum sum_{k=0}^{n-1} q^{k+1} [2k, k+1]."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Poly._trusted(list(_sums(n)[1]))


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


def q_catalan_maj_oracle(k: int, bound: int = MAJ_ORACLE_BOUND) -> Poly:
    """Brute-force maj generating polynomial over all ballot words of length 2k.

    >>> q_catalan_maj_oracle(2)
    Poly('1 + q^2')
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    if k > bound:
        raise ValueError(f"enumeration bound exceeded: {k} > {bound}")
    coeffs = [0] * (k * k + 1)
    for word in ballot_words(k):
        coeffs[major_index(word)] += 1
    return Poly(coeffs)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
