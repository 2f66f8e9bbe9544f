"""Smoke self-test of the benchmark, at a tiny size (about half a minute).

    python3 bench/selftest.py

It runs every workload untraced and traced, checks the result line against
BENCHMARK.json, shows that the verdict gate fails a tampered report stream
but ignores elapsed_ms, that a raising check is isolated, and that the
benchmark refuses to run without the library's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from qcatalan import cli  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads(contract: dict) -> None:
    check(set(run.CHECK_SUITES) == set(workloads.ENTRY) == set(cli.SUITES),
          "the suite lists of run.py, workloads.py and the CLI differ")
    kinds = {"0": contract["end_to_end"], "1": contract["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, wanted in kinds.items():
            proc = bench_run("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", trace, "--size", "tiny")
            check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: {result['failed']} of "
                  f"{result['attempted']} checks failed")
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in wanted],
                  f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            for m in wanted:
                value = metrics[m["name"]]
                check(value["unit"] == m["unit"], f"{m['name']}: unit {value['unit']}")
                check(math.isfinite(value["value"]), f"{m['name']}: {value['value']}")
                if trace == "0":
                    check(value["value"] > 0, f"{workload} {m['name']} is not positive")
            print(f"ok: {workload} trace {trace}, {result['attempted']} checks")


def test_gate_rejects_tampered_stream(expected: dict) -> None:
    sink = workloads.Sink()
    cli.run_verify(workloads.make_inputs("verify-all", 0, "tiny"), sink)
    lines = sink.lines

    def gate(stream: list) -> int:
        digest = workloads.digest([workloads.canonical(line) for line in stream])
        result = {"raised": False, "checks": len(stream), "sha256": digest, "failed": 0}
        return run.gate(result, expected)

    check(gate(lines) == 0, "the untouched stream fails the gate")
    retimed = [line.replace('"elapsed_ms": ', '"elapsed_ms": 1') for line in lines]
    check(retimed != lines and gate(retimed) == 0, "the gate looks at elapsed_ms")
    flipped = lines[:]
    flipped[3] = flipped[3].replace('"status": "pass"', '"status": "fail"')
    check(flipped != lines and gate(flipped) == len(lines), "a flipped verdict passes the gate")
    check(gate(lines[:-1]) == len(lines), "a missing report passes the gate")
    print(f"ok: the gate fails tampered streams of {len(lines)} reports, ignores elapsed_ms")


def test_fault_isolation(expected: dict) -> None:
    tasks = workloads.make_inputs("root-sweep", 0, "tiny")
    # j = 3 is not coprime to 3n = 6, so verify_main3n raises ValueError
    tasks.insert(1, ("main3n", (2, 3), {}))
    result = workloads.run_pass("root-sweep", tasks)
    check(result["checks"] == len(tasks) and result["failed"] == 1,
          "a raising check stopped the sweep or was not counted")
    check("ValueError" in result["errors"][0], "the exception is not recorded")

    inner = cli.execute_task

    def failing(task):
        if task[0] == "main3n":
            raise RuntimeError("injected")
        return inner(task)

    cli.execute_task = failing
    try:
        result = workloads.run_pass("verify-all", workloads.make_inputs("verify-all", 0, "tiny"))
    finally:
        cli.execute_task = inner
    check(result["raised"] and run.gate(result, expected) == expected["checks"],
          "an exception out of run_verify is not charged to every check")
    print("ok: a raising check is recorded and the sweep goes on")


def test_refuses_without_sources() -> None:
    bare = run.TRACE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    proc = bench_run("--workload", "phi-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "the benchmark ran without the library's sources")
    print("ok: no result without the library's sources")


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(run.EXPECTED.read_text())["workloads"]
    test_workloads(contract)
    test_gate_rejects_tampered_stream(expected["verify-all"]["tiny"])
    test_fault_isolation(expected["verify-all"]["tiny"])
    test_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
