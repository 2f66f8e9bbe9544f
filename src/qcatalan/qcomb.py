"""q-combinatorial objects: q-shifted factorials, Gaussian binomials,
MacMahon q-Catalan polynomials, the ballot/major-index oracle, the
mod-3 Legendre symbol, and the partial sums used by the congruence suites,
walked one k at a time; the suites keep only their residues.

All coefficient arithmetic is exact; the Gaussian binomials are integer
polynomials and stay on the integer fast path throughout.

gaussian_binomial is a bounded memo (functools.lru_cache, 256 entries), as
is q_catalan: a sweep asks for the same [N, K] many times, within one check
and across checks and suites, so each is built once while it stays among
the 256 most recent.  The Poly results are immutable and shared by every
caller.
"""

from __future__ import annotations

import sys
import threading
from collections import namedtuple
from functools import lru_cache
from operator import add, sub
from typing import Iterator, Sequence

from .cyclotomic import fold_mod_cyclic
from .ring import Poly, _div_one_minus, _mul_one_minus

# ---------------------------------------------------------------------------
# q-shifted factorials and Gaussian binomials


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
# The suites need a sum at n only mod Phi_n^e, e <= 2, which divides
# (q^n - 1)^2.  So one shared walk, under a lock, stores for each n only
# the two sums folded mod (q^n - 1)^2; the fold is linear, so the Catalan
# fold is the central fold minus the shifted one.


def _add_shifted(a: list[int], b: list[int], k: int, op=add) -> list[int]:
    """a + q^k * b on raw coefficient lists; a - q^k * b when op is sub."""
    bb = [0] * k + b
    out = list(map(op, a, bb))
    out += a[len(bb):]  # at most one of the two tails is nonempty
    out += [op(0, c) for c in bb[len(a):]]
    return out


class _Walk:
    """The chain after k steps: [2k, k], the running sums over j < k of
    q^j [2j, j] and q^{j+1} [2j, j+1], and residues[n - 1], the folds of the
    central and the Catalan sum at each n <= k the shared walk stored."""

    def __init__(self):
        self.k, self.central, self.cen, self.shifted = 0, [1], [], []
        self.residues: list[tuple[Poly, Poly]] = []

    def step(self) -> None:
        k, central = self.k, self.central
        # [2k, k+1]; its factor 1 - q^0 makes it zero at k = 0
        above = _div_one_minus(_mul_one_minus(central, k), k + 1)
        self.cen = _add_shifted(self.cen, central, k)
        self.shifted = _add_shifted(self.shifted, above, k + 1)
        odd = _add_shifted(central, above, k + 1)  # [2k+1, k+1]
        self.central = _add_shifted(odd, odd, k + 1)
        self.k = k + 1


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
