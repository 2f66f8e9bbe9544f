"""Inputs and passes of the benchmark's three workloads.

A pass runs one workload once, single-threaded, through qcatalan's public
functions only: the congruence / rootid / charsum ``verify_*`` functions
and ``qcatalan.cli.run_verify``.  It times each check from outside the
library and returns the report stream's digest for the verdict gate.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from time import perf_counter
from typing import Optional

from qcatalan import charsum, cli, congruence, qdsl, rootid

# suite -> (module, name of its public entry point); the name is resolved
# at call time, so a traced pass calls the tracer's wrapper
ENTRY = {
    "tauraso-phi": (congruence, "verify_tauraso_mod_phi"),
    "liu-phi2": (congruence, "verify_liu_mod_phi2"),
    "main-phi2": (congruence, "verify_main_theorem"),
    "liu-petrov": (congruence, "verify_liu_petrov"),
    "tauraso13": (congruence, "verify_tauraso13_identity"),
    "lucas": (congruence, "verify_lucas_qbinom"),
    "central-binom": (congruence, "verify_central_qbinom_congruence"),
    "row-binom": (congruence, "verify_row_qbinom_congruence"),
    "maj-oracle": (congruence, "verify_maj_oracle"),
    "main3n": (rootid, "verify_main3n"),
    "main3n-new": (rootid, "verify_main3n_new"),
    "mid": (rootid, "verify_mid_identity"),
    "extan": (rootid, "verify_extan"),
    "explicit": (rootid, "verify_explicit"),
    "even": (rootid, "verify_even_case"),
    "odd": (rootid, "verify_odd_case"),
    "aux": (rootid, "verify_aux_properties"),
    "pfd": (rootid, "verify_pfd"),
    "trig": (rootid, "verify_trig_identity"),
    "sawtooth": (rootid, "verify_sawtooth"),
    "taoconj": (charsum, "verify_taoconj"),
    "dsl-corpus": (qdsl, "run_corpus_entry"),
}

# phi-sweep: the largest n of the four q-Catalan congruence sweeps
PHI_MAX = {"full": 100, "tiny": 12}
# root-sweep bounds: main3n n, extan m, sawtooth / even / odd / aux N,
# and taoconj modulus (exclusive)
ROOT_MAX = {
    "full": {"main3n": 20, "extan": 22, "sawtooth": 10, "taoconj": 40, "parity": 9},
    "tiny": {"main3n": 4, "extan": 4, "sawtooth": 3, "taoconj": 12, "parity": 2},
}
EXTAN_SAMPLES = 5
VERIFY_ALL_N_MAX = 6
# verify-all at tiny size leaves out the two slowest suites
TINY_SUITES = [s for s in cli.SUITES if s not in ("dsl-corpus", "mid")]

# A direct task: (suite, positional args, params the seed chose).
Task = tuple[str, tuple, dict]


def _phi_sweep(size: str) -> list[Task]:
    top = PHI_MAX[size] + 1
    return (
        [("tauraso-phi", (n,), {}) for n in range(2, top)]
        + [("liu-phi2", (n,), {}) for n in range(2, top) if n % 3]
        + [("main-phi2", (n,), {}) for n in range(3, top, 3)]
        + [("liu-petrov", (n,), {}) for n in range(2, top)]
    )


def _extan_samples(rng: random.Random, m: int) -> list[Fraction]:
    out: list[Fraction] = []
    while len(out) < EXTAN_SAMPLES:
        z = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        if z**m != 1 and z not in out:
            out.append(z)
    return out


def _root_sweep(seed: int, size: str) -> list[Task]:
    bound = ROOT_MAX[size]
    orbit = rootid.galois_orbit
    tasks: list[Task] = []
    for n in range(1, bound["main3n"] + 1):
        tasks += [("main3n", (n, j), {}) for j in orbit(3 * n)]
    rng = random.Random(seed)
    for m in range(1, bound["extan"] + 1):
        for z in _extan_samples(rng, m):
            chosen = {"z_num": z.numerator, "z_den": z.denominator}
            tasks.append(("extan", (m, z), chosen))
    for N in range(2, bound["sawtooth"] + 1):
        j = orbit(6 * N - 3)[0]
        tasks += [("sawtooth", (N, j, k), {}) for k in range(1, 2 * N - 1)]
    for m in range(5, bound["taoconj"], 2):
        if m % 3:
            N = (m + 1) // 2
            for chi in charsum.character_group(m):
                if not chi.is_principal():
                    tasks.append(("taoconj", (N, chi), {}))
    parity = range(1, bound["parity"] + 1)
    for N in parity:
        tasks += [("even", (N, j), {}) for j in orbit(6 * N)]
    for N in parity:
        tasks += [("odd", (N, j), {}) for j in orbit(6 * N - 3)]
    for N in parity:
        tasks += [("aux", (N, j, "even"), {}) for j in orbit(6 * N)]
        tasks += [("aux", (N, j, "odd"), {}) for j in orbit(6 * N - 3)]
    return tasks


def make_inputs(workload: str, seed: int, size: str):
    """The workload's inputs; the same seed gives the same inputs."""
    if workload == "phi-sweep":
        return _phi_sweep(size)
    if workload == "root-sweep":
        return _root_sweep(seed, size)
    if workload == "verify-all":
        # the real command, `qcatalan verify all --n-max 6 --json`, with the
        # CLI's own fixed seeds; --n-max keeps a pass short enough for a run
        # to hold several passes, and the qdsl corpus ignores it
        if size == "tiny":
            return cli.RunConfig(suites=TINY_SUITES, n_max=4, as_json=True)
        return cli.RunConfig(suites=list(cli.SUITES), n_max=VERIFY_ALL_N_MAX, as_json=True)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the verdict gate's digest


def canonical(line: str, chosen: Optional[dict] = None) -> str:
    """A report line without elapsed_ms.  Params the seed chose are replaced
    by a placeholder when they equal the inputs, so one stored digest
    serves every seed; a mismatch is left in and changes the digest."""
    obj = json.loads(line)
    obj.pop("elapsed_ms", None)
    params = obj.get("params", {})
    if chosen and all(params.get(k) == v for k, v in chosen.items()):
        params.update(dict.fromkeys(chosen, "seeded"))
    return json.dumps(obj, sort_keys=True)


def digest(canonical_lines: list[str]) -> str:
    return hashlib.sha256("".join(c + "\n" for c in canonical_lines).encode()).hexdigest()


# ---------------------------------------------------------------------------
# passes


class Sink:
    """In-memory text stream that timestamps each completed line."""

    def __init__(self):
        self.lines: list[str] = []
        self.arrivals: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        now = perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines += done
        self.arrivals += [now] * len(done)
        return len(text)

    def flush(self) -> None:
        pass


def _error_line(suite: str, args: tuple, exc: Exception) -> str:
    return json.dumps(
        {"suite": suite, "args": repr(args), "status": "error",
         "witness": f"{type(exc).__name__}: {exc}"},
        sort_keys=True,
    )


def _run_direct(tasks: list[Task]) -> dict:
    check_s: list[float] = []
    arrivals: list[float] = []
    canon: list[str] = []
    errors: list[str] = []
    elapsed = 0.0
    failed = 0
    start = perf_counter()
    for suite, args, chosen in tasks:
        module, name = ENTRY[suite]
        t0 = perf_counter()
        try:
            report = getattr(module, name)(*args)
        except Exception as exc:  # a raising check is a failed check; go on
            t1 = perf_counter()
            line = _error_line(suite, args, exc)
            errors.append(line)
            failed += 1
        else:
            t1 = perf_counter()
            line = report.to_json()
            elapsed += report.elapsed
            if not report.passed:
                failed += 1
                errors.append(line)
        check_s.append(t1 - t0)
        arrivals.append(t1)  # the report reaches the sink as the call returns
        canon.append(canonical(line, chosen))
    return _result(start, arrivals[-1] if arrivals else start, check_s, arrivals,
                   canon, elapsed, failed, errors)


def _run_verify_all(config) -> dict:
    check_s: list[float] = []
    inner = cli.execute_task

    # times each check from outside; run_verify resolves this name per task
    def timed(task):
        t0 = perf_counter()
        try:
            return inner(task)
        finally:
            check_s.append(perf_counter() - t0)

    cli.execute_task = timed
    sink = Sink()
    errors: list[str] = []
    raised = False
    start = perf_counter()
    try:
        cli.run_verify(config, sink)
    except Exception as exc:  # counts every attempted check as failed
        raised = True
        errors.append(f"run_verify raised {type(exc).__name__}: {exc}")
    end = perf_counter()
    cli.execute_task = inner
    canon, elapsed, failed = [], 0.0, 0
    for line in sink.lines:
        obj = json.loads(line)
        elapsed += obj.get("elapsed_ms", 0.0) / 1000.0
        if obj.get("status") != "pass":
            failed += 1
            errors.append(line)
        canon.append(canonical(line))
    return _result(start, end, check_s, sink.arrivals, canon, elapsed, failed, errors,
                   raised)


def _result(start, end, check_s, arrivals, canon, elapsed, failed, errors,
            raised=False) -> dict:
    gaps = [b - a for a, b in zip([start] + arrivals, arrivals + [end])]
    return {
        "wall_s": end - start,
        "check_s": check_s,
        "report_gap_max_s": max(gaps),
        "elapsed_s": elapsed,
        "checks": len(canon),
        "sha256": digest(canon),
        "failed": failed,
        "errors": errors[:5],
        "raised": raised,
    }


def run_pass(workload: str, inputs) -> dict:
    if workload == "verify-all":
        return _run_verify_all(inputs)
    return _run_direct(inputs)
