"""The benchmark harness wraps library names that it looks up by string.

bench/tracer.py and bench/workloads.py are imported read-only, so a change
that renames or removes a name they trace fails here, not only when the
benchmark runs with --trace.
"""

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
