"""The qcatalan benchmark: exact-verdict sweeps, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record      # store the verdict gate's digests
    python3 bench/selftest.py          # smoke test at a tiny size

Run it from the repository root.  Every pass of a workload runs in a fresh
interpreter (``bench/worker.py``) with the library taken from ``src/``, so
each pass pays the cold module caches that every ``qcatalan verify`` run
pays.  Passes run one after another, single-threaded, until ``--seconds``
are used (at least MIN_PASSES); the end-to-end metrics come from each
check's fastest time over the passes, scaled by a calibration kernel (see
``end_to_end`` and ``run``).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics instead.  Every pass goes through the
verdict gate: a pass whose check count or report-stream digest differs
from ``bench/expected.json`` has all its checks counted as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
TRACE_DIR = BENCH / "out"

WORKLOADS = ("phi-sweep", "root-sweep", "verify-all")
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
SETUP_ONLY = 5  # extra set-up-only launches per run, for the setup_s median
HARD_LIMIT_S = 170.0  # no pass starts that could end after this
TAIL_BEYOND = 10  # the tail percentile keeps this many checks beyond it
CALIBRATION_SHARE = 0.1  # of each round's time, spent on the calibration kernel
REFERENCE_KERNEL_S = 0.045  # times read as seconds on a host where the kernel takes this

END_TO_END = (
    ("wall_s", "s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("report_gap_max_s", "s"),
)

CHECK_SUITES = (
    "tauraso-phi", "liu-phi2", "main-phi2", "liu-petrov", "tauraso13", "lucas",
    "central-binom", "row-binom", "main3n", "main3n-new", "mid", "extan",
    "explicit", "even", "odd", "aux", "pfd", "trig", "sawtooth", "taoconj",
    "maj-oracle", "dsl-corpus",
)
TIMED = ("calls", "self_s")
LAYERS = (
    ("ring.Poly.add", TIMED),
    ("ring.Poly.divmod", TIMED),
    ("ring.Poly.mul", TIMED),
    ("qcomb.catalan_sum", TIMED),
    ("qcomb.central_sum", TIMED),
    ("qcomb.q_catalan", TIMED),
    ("qcomb.gaussian_binomial", TIMED),
    ("cyclotomic.reduce_mod_phi_power", TIMED),
    ("cyclotomic.cyclotomic_poly", TIMED),
    ("cyclotomic.CycloElem.inv", TIMED + ("total_s", "distinct_ratio")),
    ("cyclotomic.poly_xgcd", TIMED),
    ("cyclotomic.CycloElem.mul", TIMED),
    ("cyclotomic.CycloElem.add", TIMED),
    ("cyclotomic.CycloField.inv_one_minus", TIMED),
    ("cyclotomic.CycloField.inv_one_plus", TIMED),
    ("cyclotomic.CycloField.element", TIMED),
    ("charsum.character_group", TIMED),
    ("charsum.compute_char_sums", TIMED),
    ("qdsl.parse", TIMED),
    ("qdsl.shipped_corpus", TIMED),
    ("qdsl.eval_poly", TIMED),
    ("qdsl.run_corpus_entry", TIMED + ("total_s",)),
    *((f"check.{suite}", ("self_s",)) for suite in CHECK_SUITES),
    ("rootid.compute_auxiliaries", TIMED),
    ("cli.generate_tasks", TIMED + ("total_s",)),
    ("cli.execute_task", TIMED),
    ("congruence.run_check", ("calls", "elapsed_coverage")),
    ("trace", ("overhead_s",)),
)
UNITS = {"calls": "count", "distinct_ratio": "ratio", "elapsed_coverage": "ratio"}
HIGHER_IS_BETTER = ("distinct_ratio", "elapsed_coverage")


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    return [
        (f"{layer}.{field}", UNITS.get(field, "s"),
         "higher" if field in HIGHER_IS_BETTER else "lower")
        for layer, fields in LAYERS
        for field in fields
    ]


# ---------------------------------------------------------------------------
# passes


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, size: str, mode: str, timeout: float):
    """Run one worker; its result dict with ``setup_s`` added, or None."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), size, mode]
    if mode == "trace":
        TRACE_DIR.mkdir(exist_ok=True)
        cmd.append(str(TRACE_DIR / f"trace-{workload}-{size}.jsonl"))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload} {mode} pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def gate(result, expected: dict) -> int:
    """Failed checks of one pass.  A pass that died, raised out of
    run_verify, or whose check count or stream digest differs from the
    stored one has every check counted as failed."""
    if (
        result is None
        or result["raised"]
        or result["checks"] != expected["checks"]
        or result["sha256"] != expected["sha256"]
    ):
        return expected["checks"]
    return result["failed"]


def end_to_end(untraced: list, setups: list, scale: float) -> dict:
    """End-to-end metrics of a run from its untraced passes.

    Every pass runs the same checks in the same order, and host
    interference only ever adds time, so each check's fastest time over
    the passes is its time on an undisturbed host.  A pass's slowdown is
    its summed check time over the summed fastest times; its wall and
    report-gap times are divided by it before the median is taken.  The
    check, wall and gap times are then multiplied by ``scale`` (see ``run``);
    set-up time, mostly process creation and imports, is not.
    """
    n = statistics.mode(len(r["check_s"]) for r in untraced)
    same = [r for r in untraced if len(r["check_s"]) == n]
    fastest = sorted(min(col) for col in zip(*(r["check_s"] for r in same)))
    slowdown = [sum(r["check_s"]) / sum(fastest) for r in same]
    return {
        "wall_s": scale * statistics.median(r["wall_s"] / f for r, f in zip(same, slowdown)),
        "check_p50_ms": scale * 1000.0 * statistics.median(fastest),
        "check_tail_ms": scale * 1000.0 * fastest[max(0, n - TAIL_BEYOND - 1)],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(setups),
        "report_gap_max_s": scale * statistics.median(
            r["report_gap_max_s"] / f for r, f in zip(same, slowdown)
        ),
    }


def _layer_values(result: dict, scale: float) -> dict:
    stats = result["stats"]
    # the dsl-corpus check is the run_corpus_entry call itself
    stats["qdsl.run_corpus_entry"] = stats.get("check.dsl-corpus", [0, 0.0, 0.0])
    out = {}
    for layer, fields in LAYERS:
        calls, self_s, total_s = stats.get(layer, [0, 0.0, 0.0])
        for field in fields:
            if field == "calls":
                out[f"{layer}.calls"] = calls
            elif field == "self_s":
                out[f"{layer}.self_s"] = scale * self_s
            elif field == "total_s":
                out[f"{layer}.total_s"] = scale * total_s
            elif field == "distinct_ratio":
                out[f"{layer}.distinct_ratio"] = result["inv_distinct"] / calls if calls else 0.0
    return out


def layer_metrics(traced: list, untraced: list, scale: float) -> dict:
    per_pass = [_layer_values(r, scale) for r in traced]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    # report elapsed against outside-measured check time, from untraced passes
    out["congruence.run_check.elapsed_coverage"] = statistics.median(
        r["elapsed_s"] / sum(r["check_s"]) for r in untraced
    )
    out["trace.overhead_s"] = scale * (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
    )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    """Measure one workload and print its metrics; the last line is JSON.

    The speed a shared host leaves to one CPU drifts by tens of percent over
    minutes.  So this process and its workers are pinned to one CPU, and
    before each round of passes the calibration kernel (bench/calibrate.py)
    runs for CALIBRATION_SHARE of the previous round's time on that CPU.
    Check, wall and layer times are multiplied by REFERENCE_KERNEL_S over
    the kernel's time: they read as seconds on a host where the kernel
    takes REFERENCE_KERNEL_S.
    """
    start = time.monotonic()
    expected = json.loads(EXPECTED.read_text())["workloads"][workload][size]

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    setups = [spawn(workload, seed, size, "setup", remaining()) for _ in range(SETUP_ONLY)]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # workers inherit it
    untraced, traced, attempted, failed = [], [], 0, 0
    kernel = calibrate.Calibration()
    modes = ("run", "trace") if trace else ("run",)
    min_rounds = 1 if trace else MIN_PASSES
    rounds, took = 0, 0.0
    while True:
        kernel.run(CALIBRATION_SHARE * took)
        round_start = time.monotonic()
        for mode in modes:
            result = spawn(workload, seed, size, mode, remaining())
            attempted += expected["checks"]
            failed += gate(result, expected)
            if result is not None:
                (traced if mode == "trace" else untraced).append(result)
                for err in result["errors"]:
                    print(f"failed check: {err[:300]}", file=sys.stderr)
        rounds += 1
        took = time.monotonic() - round_start
        if remaining() < 2 * took:
            break
        if rounds >= min_rounds and time.monotonic() - start + took > seconds:
            break
    ready = [s["setup_s"] for s in setups + untraced + traced if s is not None]
    if not untraced or (trace and not traced) or not ready:
        print(f"{workload}: no pass completed", file=sys.stderr)
        return 1

    scale = REFERENCE_KERNEL_S / kernel.seconds()
    e2e = end_to_end(untraced, ready, scale)
    n = len(untraced[0]["check_s"])
    tail = max(0, n - TAIL_BEYOND - 1)
    print(f"workload {workload}  seed {seed}  size {size}  python {platform.python_version()}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, {len(ready)} set-ups; "
          f"{n} checks per pass; time scale {scale:.4f} ({kernel.runs} kernel runs)")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:18s} {value:12.4f} {units[name]}")
    print(f"  check_tail_ms is the p{100.0 * (tail + 1) / n:.2f} of {n} checks "
          f"({n - 1 - tail} beyond it); unscaled wall_s {e2e['wall_s'] / scale:.4f} s")
    print(f"  check_fail_ratio   {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"  verdict gate: expect {expected['checks']} checks, sha256 {expected['sha256'][:16]}")
    if trace:
        metrics = layer_metrics(traced, untraced, scale)
        unit_of = {name: unit for name, unit, _ in layer_metric_names()}
        for name, value in metrics.items():
            print(f"  {name:44s} {value:14.6f} {unit_of[name]}")
        out = {name: {"value": metrics[name], "unit": unit_of[name]} for name in unit_of}
    else:
        out = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


# ---------------------------------------------------------------------------
# recording the verdict gate


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(seed: int) -> int:
    """Store each workload's check count and stream digest, refusing to
    record a stream that holds any failed check.  root-sweep is run with a
    second seed to show that its digest does not depend on the seed."""
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for size in ("full", "tiny"):
            seeds = (seed, seed + 1) if workload == "root-sweep" else (seed,)
            results = [spawn(workload, s, size, "run", 600.0) for s in seeds]
            if any(r is None or r["failed"] or r["raised"] for r in results):
                print(f"{workload} {size}: a check failed; nothing recorded", file=sys.stderr)
                return 1
            if len({r["sha256"] for r in results}) != 1:
                print(f"{workload} {size}: digest depends on the seed", file=sys.stderr)
                return 1
            table[workload][size] = {"checks": results[0]["checks"],
                                     "sha256": results[0]["sha256"]}
            print(f"{workload} {size}: {results[0]['checks']} checks")
    EXPECTED.write_text(json.dumps({
        "recorded_with": {"seed": seed, "python": platform.python_version(),
                          "commit": _commit(), "nproc": os.cpu_count()},
        "workloads": table,
    }, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcatalan" / "__init__.py").is_file():
        print(f"no qcatalan sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
