"""Calibration kernel: the host's current speed for qcatalan-like work.

On a shared host the speed left to one process drifts by tens of percent
over minutes.  ``Calibration`` times fixed pieces of work made of frozen
copies of the library's hot loops: the q-binomial chain on integer
coefficient lists with folding mod q^n - 1, an extended Euclid over
Fraction coefficients, and JSON round trips of report lines.  It imports
nothing from qcatalan, so a change to the library cannot move it.
"""

import json
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from time import perf_counter


def _mul_one_minus(coeffs, t):
    out = coeffs + [0] * t
    out[t:] = map(sub, out[t:], coeffs)
    return out


def _div_one_minus(coeffs, t):
    out = [0] * len(coeffs)
    for r in range(min(t, len(coeffs))):
        out[r::t] = accumulate(coeffs[r::t])
    del out[len(coeffs) - t:]
    return out


def _chain(top):
    central, total = [1], []
    for k in range(top):
        central = _mul_one_minus(_mul_one_minus(central, 2 * k + 1), 2 * k + 2)
        central = _div_one_minus(_div_one_minus(central, k + 1), k + 1)
        shifted = [0] * k + central
        if len(total) < len(shifted):
            total, shifted = shifted, total
        total = list(map(add, total, shifted)) + total[len(shifted):]
    return [sum(total[r::top]) for r in range(top)]


def _divmod(a, b):
    rem, quot = list(a), [0] * max(1, len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        quot[i - len(b) + 1] = f
        for j, c in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _xgcd(n):
    a = [Fraction(1 if i % 4 == 0 else -1 if i % 4 == 2 else 0) for i in range(n + 3)]
    b = [Fraction((7 * i) % 11 - 5, 1 + i % 3) for i in range(n)]
    s0, s1 = [Fraction(1)], []
    while b:
        q, r = _divmod(a, b)
        prod = [Fraction(0)] * (len(q) + len(s1))
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                prod[i + j] += x * y
        s0, s1 = s1, [x - y for x, y in zip(s0 + [0] * len(prod), prod + [0] * len(s0))]
        a, b = b, r
    return a, s0


def _json():
    for i in range(200):
        line = json.dumps({"suite": "main3n", "params": {"n": i, "j": i % 7},
                           "status": "pass", "elapsed_ms": i / 7}, sort_keys=True)
        json.loads(line)


PIECES = (
    lambda: _chain(36), lambda: _chain(44), lambda: _chain(52),
    lambda: _xgcd(9), lambda: _xgcd(10), lambda: _xgcd(11), _json, _json,
)


class Calibration:
    """Times the pieces repeatedly, keeping each piece's fastest time.

    Like a check of a workload, a piece's fastest time over the run is its
    time on the undisturbed host; their sum is the kernel's time.
    """

    def __init__(self):
        self.fastest = [float("inf")] * len(PIECES)
        self.runs = 0

    def run(self, budget_s: float) -> None:
        """Run all pieces at least once, and again until budget_s is spent."""
        start = perf_counter()
        while True:
            for i, piece in enumerate(PIECES):
                t0 = perf_counter()
                piece()
                self.fastest[i] = min(self.fastest[i], perf_counter() - t0)
            self.runs += 1
            if perf_counter() - start >= budget_s:
                return

    def seconds(self) -> float:
        return sum(self.fastest)
