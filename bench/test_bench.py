"""Fast tests of the benchmark itself: determinism, oracles, failure counting.

    python3 -m pytest bench -q
"""

import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

qm = worker.load_package()


def prefix(name, seed, n=60):
    return list(itertools.islice(workloads.WORKLOADS[name].stream(seed), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_stream_is_deterministic_per_seed(name):
    assert prefix(name, 7) == prefix(name, 7)
    assert prefix(name, 7) != prefix(name, 8)


def test_expand_stream_mix():
    ops = prefix("expand", 3, 400)
    cold = [op for op in ops if op["kind"] == "cold"]
    assert len(cold) == 100 and all(op["kind"] == "cold" for op in ops[::4])
    assert len({op["precision"] for op in cold}) == len(cold)
    assert all(64 <= op["precision"] <= 256 and 12 <= op["weight"] <= 32 for op in cold)
    seen = set()
    for op in ops:
        key = (op["weight"], tuple(sorted(op["monomials"].items())), op["precision"])
        assert op["kind"] == "cold" or key in seen
        seen.add(key)


def test_cli_stream_has_one_malformed_op_in_ten():
    ops = prefix("cli", 5, 500)
    share = sum(op["sub"] == "malformed" for op in ops) / len(ops)
    assert 0.08 <= share <= 0.11


def test_expansion_oracle_matches_known_coefficients():
    oracle = oracles.ExpansionOracle()
    assert oracle.generator(1, 4) == [1, 240, 2160, 6720]
    delta = oracle.expand({(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)}, 6)
    assert delta == [oracles.mod_rational(x) for x in (0, 1, -24, 252, -1472, 4830)]


def test_oracle_product_matches_schoolbook():
    a = [x % oracles.PRIME for x in (3, -7, 11, 2**70, 5)]
    b = [x % oracles.PRIME for x in (-2, 9, 4, 1, 2**65)]
    want = [sum(a[i] * b[n - i] for i in range(n + 1)) % oracles.PRIME for n in range(5)]
    assert oracles.mul_mod(a, b) == want


def test_expand_oracle_rejects_a_planted_coefficient():
    inp = {"kind": "cold", "weight": 12, "precision": 24,
           "monomials": {(2, 2, 0): Fraction(3, 2), (0, 0, 2): Fraction(-1, 5)}}
    out = workloads.expand_run(qm, inp)
    oracle = oracles.ExpansionOracle()
    assert workloads.expand_check(oracle, inp, out, qm) is None
    series = list(out["series"])
    series[17] += 1
    assert "q^17" in workloads.expand_check(oracle, inp, dict(out, series=series), qm)
    completion = [list(s) for s in out["completion"]]
    completion[1][3] -= Fraction(1, 7)
    assert "Yhat^1" in workloads.expand_check(oracle, inp, dict(out, completion=completion), qm)


def test_verify_oracle_rejects_a_planted_verdict():
    true, control = prefix("verify", 1, 5)[0], prefix("verify", 1, 5)[4]
    assert true["expect_pass"] and not control["expect_pass"]
    for inp in (true, control):
        out = workloads.verify_run(qm, inp)
        assert workloads.verify_check(None, inp, out, qm) is None
        assert workloads.verify_check(None, inp, dict(out, verdict=not out["verdict"]), qm)


def test_roundtrip_oracle_rejects_planted_outputs():
    oracle = oracles.ExpansionOracle()
    form_op = next(op for op in prefix("roundtrip", 2) if op["kind"] == "form")
    out = workloads.roundtrip_run(qm, form_op)
    assert workloads.roundtrip_check(oracle, form_op, out, qm) is None
    wrong = dict(out["recognized"])
    key = next(iter(wrong))
    wrong[key] += 1
    assert workloads.roundtrip_check(oracle, form_op, dict(out, recognized=wrong), qm)
    assert workloads.roundtrip_check(oracle, form_op, dict(out, dumps=out["dumps"].replace('"version":1', '"version":2'), redumps=out["dumps"].replace('"version":1', '"version":2')), qm)
    rebuilt = list(out["rebuilt"])
    rebuilt[5] += 1
    assert workloads.roundtrip_check(oracle, form_op, dict(out, rebuilt=rebuilt), qm)
    certify = {"kind": "certify", "k": 24, "m": 2}
    out = workloads.roundtrip_run(qm, certify)
    assert out == {"rank": 7, "dim": 7}
    assert workloads.roundtrip_check(oracle, certify, out, qm) is None
    assert workloads.roundtrip_check(oracle, certify, {"rank": 6, "dim": 7}, qm)


def test_cli_oracle_rejects_planted_exit_codes_and_tables():
    runner = workloads.CliRunner()
    oracle = oracles.ExpansionOracle()
    dims = {"sub": "dims", "argv": ["dims", "--kmax", "12", "--mmax", "2"], "expect": 0,
            "check": "dims", "kmax": 12, "mmax": 2}
    out = runner(qm, dims)
    assert workloads.cli_check(oracle, dims, out, qm) is None
    assert workloads.cli_check(oracle, dims, dict(out, exit=1), qm)
    assert workloads.cli_check(oracle, dims, dict(out, stdout=out["stdout"][:-2] + "5\n"), qm)
    control = {"sub": "verify", "argv": ["verify", "--as-weight", "2", "--", "E2"], "expect": 1,
               "check": "in_process", "weight": 2}
    out = runner(qm, control)
    assert workloads.cli_check(oracle, control, out, qm) is None
    assert workloads.cli_check(oracle, control, dict(out, exit=0), qm)
    malformed = {"sub": "malformed", "argv": ["expand", "E3"], "expect": 2, "check": "exit"}
    out = runner(qm, malformed)
    assert workloads.cli_check(oracle, malformed, out, qm) is None
    assert workloads.cli_check(oracle, malformed, dict(out, exit=1), qm)


def test_raised_exception_counts_as_failed_op():
    def explode(qm_, inp):
        raise ZeroDivisionError("planted")

    judge = worker.Judge(workloads.WORKLOADS["verify"], qm)
    latencies, reference, _ = worker.closed_loop(iter([{"kind": "x"}] * 3), explode, qm, judge, 0.0, 3,
                                                 speed.Meter(period=None))
    assert len(latencies) == len(reference) == 3
    assert judge.failed == 3
    assert all("ZeroDivisionError: planted" in reason for reason in judge.reasons)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_streams_avoid_known_defects(name):
    ops = prefix(name, 4, 300)
    assert not any(op.get("expect_pass") and op["weight"] > max(workloads.TRUE_WEIGHTS) for op in ops)
    assert not any(op.get("sub") == "verify" and op["expect"] == 0
                   and op["weight"] > max(workloads.TRUE_WEIGHTS) for op in ops)
    assert not any(inp in ops for _, inp in workloads.WORKLOADS[name].probes)


def test_probes_report_known_defects():
    present = worker.probe(workloads.WORKLOADS["verify"], workloads.verify_run, qm)
    assert present == {workloads.VERIFY_PROBES[0][0]: True}
    runner = workloads.CliRunner()
    cli = workloads.WORKLOADS["cli"]
    assert all(worker.probe(cli, runner, qm).values()) and len(cli.probes) == 4


def test_meter_leaves_out_its_samples_and_returns_errors():
    with speed.Meter(period=0.005) as meter:
        _, error, net, reference = meter.timed(lambda: sum(i * i for i in range(300000)))
        assert error is None and meter.samples
        taken = sum(s[2] for s in meter.samples)
        _, error, _, _ = meter.timed(lambda: 1 / 0)
    assert isinstance(error, ZeroDivisionError)
    assert net > 0 and reference > 0 and taken > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with speed.Meter.for_subprocesses() as meter:
        _, error, net, reference = meter.timed(lambda: speed.spawn_bare())
    assert error is None and not meter.samples and net > 0 and reference > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.add_spans([("outer", -1, 0.0, 10.0), ("qseries.mul", 0, 1.0, 4.0),
                      (tracing.QEXPANSION, 0, 5.0, 9.0), ("inner", 2, 6.0, 7.0)])
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(3.0)
    assert summary[tracing.QEXPANSION]["self_s"] == pytest.approx(3.0)
    assert tracing.QEXPANSION + ".warm" in summary and tracing.QEXPANSION + ".cold" not in summary


def traced_cli(*argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py"), *argv], cwd=ROOT,
                          env=workloads.cli_env(), capture_output=True, text=True, timeout=60)
    line = next(x for x in proc.stderr.splitlines() if x.startswith(workloads.TRACE_MARK))
    return proc, json.loads(line[len(workloads.TRACE_MARK):])


def test_traced_cli_wraps_every_binding():
    proc, payload = traced_cli("expand", "E4", "--precision", "3")
    assert proc.returncode == 0 and proc.stdout.strip() == "1 + 240q + 2160q^2"
    names = {span[0] for span in payload["spans"]}
    assert {"cli.main", "cli.cmd_expand", "exprparse.parse_form", tracing.QEXPANSION,
            tracing.MUL, "eisenstein.eisenstein_series"} <= names
    # recognize is reached through the binding qmforms.cli imported
    doc = proc.stdout and subprocess.run(
        workloads.cli_command(["convert", "E2^2", "--to", "completion", "--precision", "8"]),
        cwd=ROOT, env=workloads.cli_env(), capture_output=True, text=True, timeout=60).stdout
    proc, payload = traced_cli("convert", doc.strip(), "--to", "quasimodular")
    assert proc.returncode == 0
    spans = payload["spans"]
    recognize = [i for i, span in enumerate(spans) if span[0] == "quasimodular.recognize"]
    assert recognize and spans[recognize[0]][1] >= 0
    assert any(span[0] == "linalg.solve_unique" and span[1] == recognize[0] for span in spans)


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
