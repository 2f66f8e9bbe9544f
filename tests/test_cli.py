"""Command-line interface: commands, exit codes, report streams."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcatalan.cli import SUITES, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi(capsys):
    code, out, _ = run_cli(["phi", "6"], capsys)
    assert code == 0
    assert out.strip() == "1 - q + q^2"


def test_qbin_qcat_catalan_sum(capsys):
    code, out, _ = run_cli(["qbin", "4", "2"], capsys)
    assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"
    code, out, _ = run_cli(["qcat", "2"], capsys)
    assert code == 0 and out.strip() == "1 + q^2"
    code, out, _ = run_cli(["catalan-sum", "3"], capsys)
    assert code == 0 and out.strip() == "1 + q + q^2 + q^4"


def test_eval_poly(capsys):
    code, out, _ = run_cli(["eval", "qcat(2)", "--poly"], capsys)
    assert code == 0
    assert out.strip() == "1 + q^2"


def test_eval_root(capsys):
    code, out, _ = run_cli(["eval", "1/(1-q)", "--root", "3", "1"], capsys)
    assert code == 0
    assert out.strip() == "2/3 + 1/3*x (mod Phi_3)"


def test_eval_bindings(capsys):
    code, out, _ = run_cli(
        ["eval", "sum(k=0..n-1, q^k*qcat(k))", "--poly", "--bind", "n=3"], capsys
    )
    assert code == 0
    assert out.strip() == "1 + q + q^2 + q^4"


def test_eval_parse_error_exits_2(capsys):
    code, _, err = run_cli(["eval", "sum(k=", "--poly"], capsys)
    assert code == 2
    assert "syntax error" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run_cli(["eval", "1/(1-q^3)", "--root", "3", "1"], capsys)
    assert code == 2
    assert "error" in err


def test_eval_nonpositive_field_order_exits_2(capsys):
    for m in ("0", "-3"):
        code, out, err = run_cli(["eval", "q", "--root", m, "1"], capsys)
        assert code == 2 and out == ""
        assert err == "error: field order must be a positive integer\n", m


def test_outsized_input_exits_2_without_a_traceback(capsys):
    # nesting too deep to parse, and sizes that no list can hold (10^20 does
    # not fit an index, so nothing is allocated)
    deep = "(" * 400 + "1" + ")" * 400
    huge = "100000000000000000000"
    cases = [
        (["eval", deep, "--poly"], "error: maximum recursion depth exceeded"),
        (["eval", "q^(10^20)", "--poly"], "error: cannot fit 'int'"),
        (["eval", "qbin(10^20, 1)", "--root", "3", "1"], "error: cannot fit"),
        (["qbin", huge, "1"], "error: cannot fit 'int'"),
        (["catalan-sum", huge], "error: cannot fit 'int'"),
        (["verify", "main3n", "--n", huge], "error: cannot fit 'int'"),
    ]
    # the sweep bound itself is checked before any task runs
    for suite in (
        "tauraso-phi", "liu-phi2", "main-phi2", "liu-petrov", "tauraso13", "lucas",
        "maj-oracle",
    ):
        for flag in ("--n", "--n-max"):
            cases.append((["verify", suite, flag, huge], "error: cannot fit 'int'"))
    for argv, message in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv[:3]
        assert err.startswith(message) and "Traceback" not in err, argv[:3]
    # suites that would sweep toward 10^20 run in a subprocess, so a hang fails
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for suite in ("central-binom", "row-binom", "mid", "extan", "trig", "taoconj"):
        done = subprocess.run(
            [sys.executable, "-m", "qcatalan", "verify", suite, "--n", huge],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and done.stdout == "", suite
        assert done.stderr.startswith("error: cannot fit 'int'"), suite


def test_outsized_chars_modulus_exits_2():
    # an odd modulus above sys.maxsize is refused before it is factorised
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    huge = "100000000000000000001"
    done = subprocess.run(
        [sys.executable, "-m", "qcatalan", "chars", "--modulus", huge],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: cannot fit 'int' into an index-sized integer\n"


def _exit_on_closed_stdout(argv, env, read_first_line):
    """(return code, stderr) of the CLI writing to a pipe whose reader
    takes one line and closes it, or whose reader is gone before it starts."""
    cmd = [sys.executable, "-m", "qcatalan", *argv]
    if read_first_line:
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        assert proc.stdout.readline()
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(
            cmd, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True
        )
        os.close(write_end)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, err


def test_closed_stdout_ends_the_run_with_141(tmp_path):
    # the run stops at the closed pipe, prints nothing to stderr (no
    # traceback, and no failed flush at exit) and exits 128 + SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = tmp_path / "reports.jsonl"
    verify = ["verify", "all", "--json", "--n-max", "6"]
    for unbuffered in ("", "1"):
        env["PYTHONUNBUFFERED"] = unbuffered
        for argv, read_first_line in (
            (verify + ["--jobs", "1", "--out", str(out)], True),
            (verify + ["--jobs", "2"], True),
            (["chars", "--modulus", "331"], True),  # 1.2 MB, more than a pipe holds
            (["chars", "--modulus", "25"], False),  # 4 kB, written at the end
        ):
            code, err = _exit_on_closed_stdout(argv, env, read_first_line)
            assert code == 141 and err == "", (argv, unbuffered, err)
        # the serial run wrote no report after the pipe closed (986 in all)
        assert 0 < len(out.read_text().splitlines()) < 986


def test_closed_stdout_under_jobs_starts_no_further_checks(monkeypatch):
    # a thread pool stands in for the process pool, so the checks that
    # ran can be counted; the first report line meets a closed pipe.  Each
    # check is held for a millisecond, so the pool is still busy when that
    # happens: a lucas check alone takes microseconds, and the two workers
    # could otherwise finish all 500 before the first line is written
    import concurrent.futures
    import time
    from concurrent.futures import ThreadPoolExecutor

    from qcatalan import cli

    ran = []
    execute_task = cli.execute_task

    def counted(task):
        ran.append(task)
        time.sleep(1e-3)
        return execute_task(task)

    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

    # run_verify imports the pool from concurrent.futures when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(cli, "execute_task", counted)
    config = cli.RunConfig(suites=["lucas"], jobs=2, as_json=True)
    generated = len(list(cli.generate_tasks(config, "lucas")))
    assert generated == 500
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # the writer is not starved of the lock
    try:
        with pytest.raises(BrokenPipeError):
            cli.run_verify(config, ClosedStdout())
    finally:
        sys.setswitchinterval(interval)
    assert 0 < len(ran) < generated


def test_serial_verify_imports_no_process_pool():
    # the pool would load multiprocessing, pickle, socket and subprocess
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    script = (
        "import sys\n"
        "from qcatalan import cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "code = cli.main(['verify', 'tauraso-phi', 'dsl-corpus', '--n', '5'])\n"
        "print(code, 'concurrent.futures.process' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "False"
    assert done.stdout.splitlines()[-1] == "0 False"


def test_eval_binding_q_exits_2(capsys):
    code, out, err = run_cli(["eval", "q+1", "--poly", "--bind", "q=3"], capsys)
    assert code == 2 and out == ""
    assert "q is the indeterminate and cannot be bound" in err


def test_eval_bad_binding_value_exits_2(capsys):
    code, out, err = run_cli(["eval", "n+1", "--poly", "--bind", "n=+-5"], capsys)
    assert code == 2 and out == ""
    assert err.strip() == "bad binding: 'n=+-5'"
    code, out, _ = run_cli(["eval", "n+1", "--poly", "--bind", "n=-5"], capsys)
    assert code == 0 and out.strip() == "-4"


def test_chars(capsys):
    code, out, _ = run_cli(["chars", "--modulus", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("chi[0]")
    assert "order=1" in lines[0]


def test_chars_output_is_pinned(capsys):
    # the tables mod 15 and 25 as the per-value CRT printed them
    pinned = {
        "15": "9a89fc90a4707eeb9eb7d232afcef860a77dc2a42f52233e17b9f05fabd131df",
        "25": "633d00dcc17955b0d0ebe2a5a1154f2ef5b9a944eaf085f3128bf78f80b1f557",
    }
    for modulus, digest in pinned.items():
        code, out, _ = run_cli(["chars", "--modulus", modulus], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, modulus


def test_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(["verify", "bogus"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_unknown_command_exits_2(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 2
    assert run_cli(["qbin", "not-a-number", "2"], capsys)[0] == 2


def test_float_mode_restriction(capsys):
    code, _, err = run_cli(["verify", "main-phi2", "--mode", "float"], capsys)
    assert code == 2
    assert "float mode" in err


def test_nonpositive_tol_is_a_usage_error(capsys):
    for tol in ("0", "-1", "nan", "inf"):
        code, out, err = run_cli(["verify", "trig", "--n", "2", "--tol", tol], capsys)
        assert code == 2 and out == "", tol
        assert "--tol must be positive" in err


def test_nonpositive_jobs_is_a_usage_error(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(["verify", "trig", "--n", "2", "--jobs", jobs], capsys)
        assert code == 2 and out == "", jobs
        assert err.strip() == "--jobs must be at least 1"


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.jsonl"
    argv = ["verify", "tauraso-phi", "--n-max", "4", "--out", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""  # no check ran
    assert err.startswith("error: ") and str(path) in err
    assert len(err.strip().splitlines()) == 1 and not path.exists()


def test_verify_text_output(capsys):
    code, out, _ = run_cli(["verify", "main-phi2", "--n-max", "12"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("total: 4 passed, 0 failed")
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_single_n(capsys):
    code, out, _ = run_cli(["verify", "tauraso-phi", "--n", "17"], capsys)
    assert code == 0
    assert "n=17" in out


def test_verify_json_stream(capsys):
    code, out, _ = run_cli(
        ["verify", "sawtooth", "--json", "--n-max", "4"], capsys
    )
    assert code == 0
    for line in out.strip().splitlines():
        obj = json.loads(line)
        assert set(obj) <= {"suite", "params", "status", "witness", "elapsed_ms"}
        assert {"suite", "params", "status", "elapsed_ms"} <= set(obj)
        assert obj["status"] == "pass"
        assert isinstance(obj["elapsed_ms"], (int, float))
        assert all(isinstance(v, int) for v in obj["params"].values())


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(
        ["verify", "pfd", "--out", str(path)], capsys
    )
    assert code == 0
    content = path.read_text().strip().splitlines()
    assert len(content) == 3
    for line in content:
        assert json.loads(line)["status"] == "pass"


def test_verify_deterministic_reports(capsys):
    argv = ["verify", "extan", "lucas", "--json", "--n-max", "6"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == 0

    def strip_elapsed(text):
        rows = []
        for line in text.strip().splitlines():
            obj = json.loads(line)
            obj.pop("elapsed_ms")
            rows.append(json.dumps(obj, sort_keys=True))
        return rows

    assert strip_elapsed(out1) == strip_elapsed(out2)


def test_verify_parallel_matches_serial(capsys):
    # taoconj tasks carry character indices to the workers
    argv = ["verify", "sawtooth", "explicit", "taoconj", "--json", "--n-max", "5"]
    code1, serial, _ = run_cli(argv, capsys)
    code2, parallel, _ = run_cli(argv + ["--jobs", "3"], capsys)
    assert code1 == code2 == 0

    def strip_elapsed(text):
        rows = []
        for line in text.strip().splitlines():
            obj = json.loads(line)
            obj.pop("elapsed_ms")
            rows.append(json.dumps(obj, sort_keys=True))
        return rows

    assert strip_elapsed(serial) == strip_elapsed(parallel)


def test_every_listed_suite_runs_small(capsys):
    for suite in SUITES:
        argv = ["verify", suite, "--n-max", "4"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, (suite, out)
        assert "failed" not in out or "0 failed" in out


def test_verify_without_checks_exits_3(capsys):
    for argv in (
        ["verify", "tauraso-phi", "--n", "1"],
        ["verify", "main3n", "--n", "2", "--j", "3"],
        ["verify", "taoconj", "--n", "2"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert out == ""
        assert "no checks" in err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    cases = ((["phi", "6"], 0), (["verify", "tauraso-phi", "--n", "1"], 3))
    for argv, want_code in cases:
        done = subprocess.run(
            [sys.executable, "-m", "qcatalan", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        code, out, _ = run_cli(argv, capsys)
        assert done.returncode == code == want_code, argv
        assert done.stdout == out


def test_serial_verify_writes_each_report_before_the_next_task(monkeypatch):
    from qcatalan import cli

    events = []
    inner = cli.execute_task

    def recording(task):
        events.append("start")
        return inner(task)

    class Stream:
        def write(self, text):
            events.append("write")
            return len(text)

        def flush(self):
            events.append("flush")

    monkeypatch.setattr(cli, "execute_task", recording)
    config = cli.RunConfig(suites=["sawtooth"], n_max=4, as_json=True)
    assert cli.run_verify(config, Stream()) == 0
    assert events.count("start") >= 3
    assert events == ["start", "write", "flush"] * events.count("start")


def test_maj_oracle_honours_n(capsys):
    from qcatalan.qcomb import MAJ_ORACLE_BOUND

    for k in (5, MAJ_ORACLE_BOUND):
        code, out, _ = run_cli(["verify", "maj-oracle", "--n", str(k), "--json"], capsys)
        assert code == 0
        assert [json.loads(line)["params"] for line in out.splitlines()] == [{"k": k}]
    # past the bound the sweep selects nothing
    for k in (MAJ_ORACLE_BOUND + 1, 50):
        code, out, err = run_cli(["verify", "maj-oracle", "--n", str(k)], capsys)
        assert code == 3 and out == "" and "no checks" in err


def test_lucas_honours_n(capsys):
    from qcatalan import cli

    code, out, _ = run_cli(["verify", "lucas", "--n", "5", "--json"], capsys)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports and all(r["params"]["n"] == 5 for r in reports)
    # an n above n_max = 30 sets n in every tuple, and one below it draws
    # as before
    code, out, _ = run_cli(["verify", "lucas", "--n", "50", "--json"], capsys)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == cli.LUCAS_COUNT
    assert all(r["params"]["n"] == 50 and r["status"] == "pass" for r in reports)
    code, out, _ = run_cli(["verify", "lucas", "--n", "20", "--json"], capsys)
    assert code == 0 and len(out.splitlines()) == 20
    # at n = 1000 the seeded draw of n alone would select no tuple
    config = cli.RunConfig(suites=["lucas"], n=1000)
    tuples = [params for _, params in cli.generate_tasks(config, "lucas")]
    assert len(tuples) == cli.LUCAS_COUNT
    assert all(p["n"] == 1000 and p["b"] < 1000 and p["d"] < 1000 for p in tuples)
    assert len({(p["b"], p["d"]) for p in tuples}) > cli.LUCAS_COUNT // 2
    for params in tuples[:5]:
        assert cli.execute_task(("lucas", params, "exact", 1e-9)).passed, params


def test_raising_check_is_reported_and_the_run_goes_on(monkeypatch, capsys):
    from qcatalan import congruence

    inner = congruence.verify_tauraso_mod_phi

    def raising(n):
        if n == 3:
            raise ValueError("injected")
        return inner(n)

    monkeypatch.setattr(congruence, "verify_tauraso_mod_phi", raising)
    code, out, err = run_cli(["verify", "tauraso-phi", "--n-max", "5", "--json"], capsys)
    assert code == 4
    assert err.startswith("Traceback") and err.rstrip().endswith("ValueError: injected")
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["params"]["n"] for r in reports] == [2, 3, 4, 5]
    assert [r["status"] for r in reports] == ["pass", "error", "pass", "pass"]
    assert reports[1]["witness"] == "ValueError: injected"
    code, out, _ = run_cli(["verify", "tauraso-phi", "--n-max", "5"], capsys)
    assert code == 4
    assert out.splitlines()[1].startswith("ERROR tauraso-phi n=3 (")
    assert out.splitlines()[-1] == "total: 3 passed, 0 failed, 0 skipped, 1 errors"


def _stream_digest(out):
    """(line count, sha256) of a --json report stream without elapsed_ms."""
    canon = []
    for line in out.splitlines():
        obj = json.loads(line)
        obj.pop("elapsed_ms")
        canon.append(json.dumps(obj, sort_keys=True) + "\n")
    return len(canon), hashlib.sha256("".join(canon).encode()).hexdigest()


def test_verify_all_stream_matches_bench_digest(capsys):
    # the verify-all benchmark workload: every suite at --n-max 6
    bench = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    want = json.loads(bench.read_text())["workloads"]["verify-all"]["full"]
    code, out, _ = run_cli(["verify", "all", "--n-max", "6", "--json"], capsys)
    assert code == 0
    assert _stream_digest(out) == (want["checks"], want["sha256"])


def test_verify_all_default_stream_is_pinned(capsys):
    # every suite at its default bounds, which reach extan m > 6 and aux N > 6
    code, out, _ = run_cli(["verify", "all", "--json"], capsys)
    assert code == 0
    assert _stream_digest(out) == (
        2170,
        "d8e15ce7931a186e2fc4dd5d72aa8c25a737ff011968c033ec1849b3ad087d49",
    )


def test_first_check_runs_before_any_corpus_line_is_parsed(monkeypatch):
    from qcatalan import cli, qdsl

    events = []
    execute_task, parse_corpus_line = cli.execute_task, qdsl.parse_corpus_line

    def starting(task):
        events.append(("start", task[0], task[1]))
        return execute_task(task)

    def parsing(line_no, line):
        events.append(("parse", line_no))
        return parse_corpus_line(line_no, line)

    monkeypatch.setattr(cli, "execute_task", starting)
    monkeypatch.setattr(qdsl, "parse_corpus_line", parsing)
    config = cli.RunConfig(suites=["tauraso-phi", "dsl-corpus"], n_max=3, as_json=True)
    assert cli.run_verify(config, io.StringIO()) == 0
    assert events[0] == ("start", "tauraso-phi", {"n": 2})
    starts = [i for i, event in enumerate(events) if event[0] == "start"]
    corpus = [i for i in starts if events[i][1] == "dsl-corpus"]
    assert len(corpus) == len(cli._corpus()) > 0
    # each corpus check parses exactly its own line, once
    for i, end in zip(starts, starts[1:] + [len(events)]):
        want = [("parse", events[i][2]["line"])] if i in corpus else []
        assert events[i + 1 : end] == want, events[i]


def test_malformed_corpus_line_is_that_lines_error(monkeypatch, capsys):
    from qcatalan import cli, qdsl

    text = "# a valid line, then a syntax error\nq + 1 == 1 + q @ poly()\nq == q + @ poly()\n"
    monkeypatch.setattr(qdsl, "shipped_corpus_text", lambda: text)
    cli._corpus.cache_clear()
    try:
        out = io.StringIO()
        config = cli.RunConfig(suites=["dsl-corpus"], as_json=True)
        assert cli.run_verify(config, out) == 4
    finally:
        cli._corpus.cache_clear()
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(r["params"]["line"], r["status"]) for r in reports] == [(2, "pass"), (3, "error")]
    assert reports[1]["witness"].startswith("ValueError: line 3: syntax error at column 10:")
    assert capsys.readouterr().err.startswith("Traceback")
