"""Command-line front end: print q-objects and character tables, evaluate
expressions, and run verification suites over parameter sweeps with
JSON-lines reporting.

Exit codes: 0 when every executed check passes, 1 when any check fails,
2 on usage errors, 3 when the requested sweeps select no checks at all,
4 when any check raised, 141 when the reader closed standard output (the
run stops there).  A check that raises does not stop the run: it
is reported with status "error" and the exception as its witness.
Report streams are deterministic: tasks are generated in sorted parameter
order and the writer preserves that order regardless of worker completion
order, so reruns are byte-identical apart from the elapsed_ms timing field.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf
from typing import Callable, Iterable, Iterator, Optional, TextIO

from . import charsum, congruence, qcomb, qdsl, rootid
from .cyclotomic import cyclotomic_poly
from .congruence import VerificationReport

LUCAS_COUNT = 500
LUCAS_SEED = 20240801
EXTAN_SEED = 777
EXTAN_SAMPLES = 5


@dataclass
class RunConfig:
    suites: list[str]
    n: Optional[int] = None
    n_max: Optional[int] = None
    j: str = "all"
    mode: str = "exact"
    tol: float = 1e-9
    jobs: int = 1
    out: Optional[str] = None
    as_json: bool = False


# ---------------------------------------------------------------------------
# sweep helpers (deterministic, sorted parameter order)

Task = tuple[str, dict]


def _ns(config: RunConfig, lo: int) -> range:
    """The sweep's n values; a bound above sys.maxsize raises OverflowError
    before any task runs, since no check could hold a table of that size."""
    if max(config.n or 0, config.n_max) > sys.maxsize:
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    if config.n is not None:
        return range(max(lo, config.n), config.n + 1)
    return range(lo, config.n_max + 1)


def _js(config: RunConfig, m: int) -> list[int]:
    if config.j == "all":
        return rootid.galois_orbit(m)
    j = int(config.j)
    return [j] if gcd(j, m) == 1 else []


def _lucas_tuples(config: RunConfig) -> Iterator[dict]:
    """LUCAS_COUNT seeded tuples, n drawn from [2, n_max] or fixed at an --n above it."""
    rng = random.Random(LUCAS_SEED)
    top = max(2, config.n_max)
    for _ in range(LUCAS_COUNT):
        n = config.n if config.n is not None and config.n > top else rng.randint(2, top)
        yield {
            "a": rng.randint(0, 4),
            "b": rng.randint(0, n - 1),
            "c": rng.randint(0, 4),
            "d": rng.randint(0, n - 1),
            "n": n,
        }


def _extan_samples(m: int) -> list[Fraction]:
    rng = random.Random(EXTAN_SEED + m)
    out: list[Fraction] = []
    while len(out) < EXTAN_SAMPLES:
        z = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        if z == 0 or z**m == 1 or z in out:
            continue
        out.append(z)
    return out


@lru_cache(maxsize=1)
def _corpus() -> dict[int, str]:
    """The shipped corpus's statement lines by line number, read once per
    process and left unparsed: the dsl-corpus tasks need only the line
    numbers, and each check parses its own line, so a malformed line is
    that check's "error" report."""
    return dict(qdsl.statement_lines(qdsl.shipped_corpus_text()))


# ---------------------------------------------------------------------------
# the suite table


@dataclass(frozen=True)
class Suite:
    """One verification suite.

    tasks(config) yields the parameter dicts of the sweep, with
    config.n_max already set to default_max when the run gives no bound;
    run(params, mode, tol) performs one check.  Rows call their verify_*
    function through its module attribute at call time, so a wrapper
    patched onto the module sees every call.
    """

    name: str
    tasks: Callable[[RunConfig], Iterable[dict]]
    run: Callable[[dict, str, float], VerificationReport]
    # default upper sweep bound, chosen so `verify all` stays comfortably
    # inside a coffee break; --n/--n-max override it per run
    default_max: Optional[int] = None
    float_ok: bool = False


SUITE_TABLE = (
    Suite(
        "tauraso-phi",
        lambda c: ({"n": n} for n in _ns(c, 2)),
        lambda p, mode, tol: congruence.verify_tauraso_mod_phi(**p),
        default_max=60,
    ),
    Suite(
        "liu-phi2",
        lambda c: ({"n": n} for n in _ns(c, 2) if n % 3 != 0),
        lambda p, mode, tol: congruence.verify_liu_mod_phi2(**p),
        default_max=60,
    ),
    Suite(
        "main-phi2",
        lambda c: ({"n": n} for n in _ns(c, 3) if n % 3 == 0),
        lambda p, mode, tol: congruence.verify_main_theorem(**p),
        default_max=60,
    ),
    Suite(
        "liu-petrov",
        lambda c: ({"n": n} for n in _ns(c, 2)),
        lambda p, mode, tol: congruence.verify_liu_petrov(**p),
        default_max=40,
    ),
    Suite(
        "tauraso13",
        lambda c: ({"n": n} for n in _ns(c, 1)),
        lambda p, mode, tol: congruence.verify_tauraso13_identity(**p),
        default_max=15,
    ),
    Suite(
        "lucas",
        lambda c: (p for p in _lucas_tuples(c) if p["n"] in _ns(c, 2)),
        lambda p, mode, tol: congruence.verify_lucas_qbinom(**p),
        default_max=30,
    ),
    Suite(
        "central-binom",
        lambda c: ({"n": n, "k": k} for n in _ns(c, 2) for k in range(1, n)),
        lambda p, mode, tol: congruence.verify_central_qbinom_congruence(**p),
        default_max=20,
    ),
    Suite(
        "row-binom",
        lambda c: ({"n": n, "k": k} for n in _ns(c, 2) for k in range(1, n)),
        lambda p, mode, tol: congruence.verify_row_qbinom_congruence(**p),
        default_max=25,
    ),
    Suite(
        "main3n",
        lambda c: ({"n": n, "j": j} for n in _ns(c, 1) for j in _js(c, 3 * n)),
        lambda p, mode, tol: rootid.verify_main3n(**p),
        default_max=10,
    ),
    Suite(
        "main3n-new",
        lambda c: ({"n": n, "j": j} for n in _ns(c, 1) for j in _js(c, 3 * n)),
        lambda p, mode, tol: rootid.verify_main3n_new(**p),
        default_max=8,
    ),
    Suite(
        "mid",
        lambda c: ({"n": n} for n in _ns(c, 2)),
        lambda p, mode, tol: rootid.verify_mid_identity(**p),
        default_max=8,
    ),
    Suite(
        "extan",
        lambda c: (
            {"m": m, "z_num": z.numerator, "z_den": z.denominator}
            for m in _ns(c, 1)
            for z in _extan_samples(m)
        ),
        lambda p, mode, tol: rootid.verify_extan(
            p["m"], Fraction(p["z_num"], p["z_den"])
        ),
        default_max=20,
    ),
    Suite(
        "explicit",
        lambda c: ({"n": n, "j": j} for n in _ns(c, 1) for j in _js(c, 3 * n)),
        lambda p, mode, tol: rootid.verify_explicit(**p),
        default_max=12,
    ),
    Suite(
        "even",
        lambda c: ({"N": N, "j": j} for N in _ns(c, 1) for j in _js(c, 6 * N)),
        lambda p, mode, tol: rootid.verify_even_case(**p),
        default_max=8,
    ),
    Suite(
        "odd",
        lambda c: ({"N": N, "j": j} for N in _ns(c, 1) for j in _js(c, 6 * N - 3)),
        lambda p, mode, tol: rootid.verify_odd_case(**p),
        default_max=8,
    ),
    Suite(
        "aux",
        lambda c: (
            {"N": N, "j": j, "even": even}
            for N in _ns(c, 1)
            for even, m in ((1, 6 * N), (0, 6 * N - 3))
            for j in _js(c, m)
        ),
        lambda p, mode, tol: rootid.verify_aux_properties(
            p["N"], p["j"], "even" if p["even"] else "odd"
        ),
        default_max=8,
    ),
    Suite(
        "pfd",
        lambda c: ({"kind": code} for code in (3, 6, 0)),
        lambda p, mode, tol: rootid.verify_pfd(
            {3: "pfd3", 6: "pfd6", 0: "cube"}[p["kind"]]
        ),
    ),
    Suite(
        "trig",
        lambda c: ({"N": N} for N in _ns(c, 2)),
        lambda p, mode, tol: rootid.verify_trig_identity(p["N"], tol),
        default_max=100,
        float_ok=True,
    ),
    Suite(
        "sawtooth",
        # one Galois conjugate per N: the first admissible j
        lambda c: (
            {"N": N, "j": j, "k": k}
            for N in _ns(c, 2)
            for j in _js(c, 6 * N - 3)[:1]
            for k in range(1, 2 * N - 1)
        ),
        lambda p, mode, tol: rootid.verify_sawtooth(**p),
        default_max=8,
    ),
    Suite(
        "taoconj",
        lambda c: (
            {"N": N, "m": 2 * N - 1, "chi": idx}
            for N in _ns(c, 2)
            if (2 * N - 1) % 3 != 0
            for idx, chi in enumerate(charsum.character_group(2 * N - 1))
            if not chi.is_principal()
        ),
        lambda p, mode, tol: charsum.verify_taoconj(
            p["N"], charsum.DirichletChar.from_index(p["m"], p["chi"]), mode, tol
        ),
        default_max=13,  # modulus 2N-1 <= 25
        float_ok=True,
    ),
    Suite(
        "maj-oracle",
        lambda c: ({"k": k} for k in _ns(c, 0) if k <= qcomb.MAJ_ORACLE_BOUND),
        lambda p, mode, tol: congruence.verify_maj_oracle(**p),
        default_max=8,
    ),
    Suite(
        "dsl-corpus",
        lambda c: ({"line": line} for line in _corpus()),
        lambda p, mode, tol: qdsl.run_corpus_entry(
            qdsl.parse_corpus_line(p["line"], _corpus()[p["line"]])
        ),
    ),
)

SUITES = tuple(suite.name for suite in SUITE_TABLE)
_BY_NAME = {suite.name: suite for suite in SUITE_TABLE}


def _suite(name: str) -> Suite:
    if name not in _BY_NAME:
        raise ValueError(f"unknown suite: {name}")
    return _BY_NAME[name]


def generate_tasks(config: RunConfig, suite: str) -> Iterator[Task]:
    row = _suite(suite)
    if config.n_max is None:
        config = replace(config, n_max=row.default_max)
    for params in row.tasks(config):
        yield (suite, params)


# top-level function so process pools can pickle it
def execute_task(task: tuple[str, dict, str, float]) -> VerificationReport:
    """Run one check; an exception becomes that check's "error" report, and
    its traceback goes to stderr."""
    suite, params, mode, tol = task
    row = _suite(suite)
    start = time.perf_counter()
    try:
        return row.run(params, mode, tol)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        witness = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        return VerificationReport(suite, dict(params), congruence.ERROR, witness, elapsed)


# ---------------------------------------------------------------------------
# the verify command


def run_verify(config: RunConfig, stdout: TextIO) -> int:
    if config.mode == "float":
        float_ok = [s.name for s in SUITE_TABLE if s.float_ok]
        bad = [s for s in config.suites if s not in float_ok]
        if bad:
            print(
                f"float mode is only defined for {', '.join(float_ok)}; "
                f"not for {', '.join(bad)}",
                file=sys.stderr,
            )
            return 2
    if not 0 < config.tol < inf:  # also rejects nan
        print("--tol must be positive and finite", file=sys.stderr)
        return 2
    if config.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    tasks: list[tuple[str, dict, str, float]] = []
    for suite in config.suites:
        for sid, params in generate_tasks(config, suite):
            tasks.append((sid, params, config.mode, config.tol))
    if not tasks:
        print("no checks to run: the requested sweeps select no parameters", file=sys.stderr)
        return 3

    try:
        out_file = open(config.out, "w", encoding="utf-8") if config.out else None
    except OSError as exc:
        print(f"error: cannot write --out {config.out}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        if config.jobs > 1:
            # imported here: a serial run does not load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                reports = pool.map(execute_task, tasks, chunksize=8)
                try:
                    counts = _write_reports(config, reports, stdout, out_file)
                except BrokenPipeError:  # start no further checks
                    pool.shutdown(cancel_futures=True)
                    raise
        else:
            reports = (execute_task(t) for t in tasks)
            counts = _write_reports(config, reports, stdout, out_file)
    finally:
        if out_file is not None:
            out_file.close()
    if counts["error"]:
        return 4
    return 0 if counts["fail"] == 0 else 1


def _write_reports(
    config: RunConfig,
    reports: Iterable[VerificationReport],
    stdout: TextIO,
    out_file: Optional[TextIO],
) -> dict[str, int]:
    """Write each report as it arrives; reports come in task order, so a
    line is written as soon as it and every line before it are done."""
    counts = {"pass": 0, "fail": 0, "skipped": 0, "error": 0}
    for rep in reports:
        counts[rep.status] += 1
        stdout.write((rep.to_json() if config.as_json else rep.summary()) + "\n")
        stdout.flush()
        if out_file is not None:
            out_file.write(rep.to_json() + "\n")
            out_file.flush()
    if not config.as_json:
        errors = f", {counts['error']} errors" if counts["error"] else ""
        stdout.write(
            f"total: {counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped{errors}\n"
        )
    return counts


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcatalan",
        description="Exact verification of q-Catalan congruences, "
        "root-of-unity identities and character sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="print the n-th cyclotomic polynomial")
    p_phi.add_argument("n", type=int)

    p_qbin = sub.add_parser("qbin", help="print the Gaussian binomial [n, k]")
    p_qbin.add_argument("n", type=int)
    p_qbin.add_argument("k", type=int)

    p_qcat = sub.add_parser("qcat", help="print the q-Catalan polynomial C_k")
    p_qcat.add_argument("k", type=int)

    p_csum = sub.add_parser(
        "catalan-sum", help="print the partial sum of q^k C_k over k < n"
    )
    p_csum.add_argument("n", type=int)

    p_chars = sub.add_parser("chars", help="list the Dirichlet characters mod m")
    p_chars.add_argument("--modulus", type=int, required=True)

    p_eval = sub.add_parser("eval", help="evaluate an identity-language expression")
    p_eval.add_argument("expr")
    target = p_eval.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--poly", action="store_true", help="evaluate to a polynomial in q"
    )
    target.add_argument(
        "--root",
        nargs=2,
        type=int,
        metavar=("M", "J"),
        help="evaluate in Q(zeta_M) with q = zeta_M^J",
    )
    p_eval.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="bind an integer variable (repeatable)",
    )

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="+", metavar="suite")
    p_verify.add_argument("--n", type=int, default=None, help="single parameter value")
    p_verify.add_argument("--n-max", type=int, default=None, help="sweep upper bound")
    p_verify.add_argument("--j", default="all", help="root exponent: all or an integer")
    p_verify.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--json", action="store_true", help="JSON-lines to stdout")
    p_verify.add_argument("--out", default=None, help="write JSON-lines to a file")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel workers")
    return parser


def _cmd_chars(modulus: int, stdout: TextIO) -> int:
    chars = charsum.character_group(modulus)
    for idx, chi in enumerate(chars):
        e = chi.order
        values = []
        for t in chi.exponent_table[1:]:
            if t is None:
                values.append("0")
            elif t == 0:
                values.append("1")
            elif 2 * t == e:
                values.append("-1")
            else:
                values.append(f"zeta{e}^{t}")
        stdout.write(
            f"chi[{idx}] exponents={list(chi.exponents)} order={e} "
            f"conductor={chi.conductor()} values on 1..{modulus - 1}: "
            + " ".join(values)
            + "\n"
        )
    return 0


def _cmd_eval(args, stdout: TextIO) -> int:
    try:
        expr = qdsl.parse(args.expr)
        bindings: dict[str, int] = {}
        for spec in args.bind:
            name, _, value = spec.partition("=")
            if not name or not re.fullmatch(r"[+-]?\d+", value):
                print(f"bad binding: {spec!r}", file=sys.stderr)
                return 2
            bindings[name.strip()] = int(value)
        if args.poly:
            stdout.write(qdsl.eval_poly(expr, bindings).render() + "\n")
        else:
            m, j = args.root
            stdout.write(qdsl.eval_cyclo(expr, m, j, bindings).render() + "\n")
        return 0
    except (ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors already print a message
        return exc.code if isinstance(exc.code, int) else 2
    stdout = sys.stdout
    try:
        code = _dispatch(args, stdout)
        stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: the run ends here, and the flush at
        # interpreter exit writes what is left to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a pipe writer


def _dispatch(args, stdout: TextIO) -> int:
    try:
        if args.command == "phi":
            stdout.write(cyclotomic_poly(args.n).render() + "\n")
            return 0
        if args.command == "qbin":
            stdout.write(qcomb.gaussian_binomial(args.n, args.k).render() + "\n")
            return 0
        if args.command == "qcat":
            stdout.write(qcomb.q_catalan(args.k).render() + "\n")
            return 0
        if args.command == "catalan-sum":
            stdout.write(qcomb.catalan_sum(args.n).render() + "\n")
            return 0
        if args.command == "chars":
            return _cmd_chars(args.modulus, stdout)
        if args.command == "eval":
            return _cmd_eval(args, stdout)
        # verify, the last subcommand: the parser requires one
        suites = list(args.suites)
        if "all" in suites:
            suites = list(SUITES)
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            print(
                f"unknown suite(s): {', '.join(unknown)}; "
                f"choose from {', '.join(SUITES)} or all",
                file=sys.stderr,
            )
            return 2
        config = RunConfig(
            suites=suites,
            n=args.n,
            n_max=args.n_max,
            j=args.j,
            mode=args.mode,
            tol=args.tol,
            jobs=args.jobs,
            out=args.out,
            as_json=args.json,
        )
        return run_verify(config, stdout)
    except (ValueError, OverflowError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
