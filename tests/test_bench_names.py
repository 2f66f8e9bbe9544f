"""The benchmark harness wraps library names that it looks up by string,
and its direct workloads' report streams are pinned in bench/expected.json.

bench/tracer.py and bench/workloads.py are imported read-only, so a change
that renames or removes a name they trace, or changes a verdict or witness
of root-sweep or phi-sweep, fails here, not only when the benchmark runs.
"""

import json
import sys
from pathlib import Path

from qcatalan import cli, congruence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    import workloads

    for name, (owner, attrs) in tracer.OPERATORS.items():
        for attr in attrs:
            assert attr in vars(owner), (name, attr)
    for name, (owner, attr) in tracer.SPANS.items():
        assert attr in vars(owner), name
    for suite, (module, attr) in workloads.ENTRY.items():
        assert callable(getattr(module, attr, None)), suite
    assert callable(cli.generate_tasks) and callable(congruence.run_check)


def test_direct_workload_streams_match_bench_digests(monkeypatch):
    # one in-process pass of root-sweep (taoconj moduli 27-39, main3n
    # n <= 20, aux N = 9, which no other pin reaches) and of phi-sweep;
    # verify-all's digest is pinned in tests/test_cli.py
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    expected = json.loads((BENCH / "expected.json").read_text())["workloads"]
    for name in ("root-sweep", "phi-sweep"):
        result = workloads.run_pass(name, workloads.make_inputs(name, 0, "full"))
        want = expected[name]["full"]
        assert result["failed"] == 0 and not result["errors"], name
        assert (result["checks"], result["sha256"]) == (want["checks"], want["sha256"]), name
