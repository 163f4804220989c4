"""qmforms benchmark: every workload for one seed, from one command.

    python3 bench/run.py [--workload all|expand|verify|roundtrip|cli] [--seed N]
                         [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own fresh worker process, one after
another (never two at a time).  With ``--trace 0`` the end-to-end metrics
are measured with tracing off; with ``--trace 1`` a fixed prefix of each
workload's input stream runs once untraced and once traced, and per-layer
metrics, the precision sweep and the tracing overhead are reported.
Timings are scaled to reference speed (``speed.py``), because the host's
speed drifts; the measured figures are printed beside them.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 on a completed run (failed ops are reported and make ``correct``
false); 2 when the checkout has no package to measure or a worker process
fails.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import cli_env  # noqa: E402

ORDER = ["expand", "verify", "roundtrip", "cli"]
SETUP_RUNS = 11
PROBE_RUNS = 5
WORKER_TIMEOUT_S = 170
OUT_DIR = os.path.join(ROOT, ".bench_out")

# ops in the traced run (and in its untraced twin), about 10 s each at seed
TRACE_OPS = {"expand": 40, "verify": 120, "roundtrip": 300, "cli": 60}

# A fresh interpreter imports qmforms, builds default_plan() and runs its
# first check, which begins with the one-time LAMBDA self-test.
SETUP_CODE = (
    "import qmforms\n"
    "plan = qmforms.default_plan()\n"
    "one = qmforms.SamplePlan(taus=plan.taus[:1], gammas=plan.gammas[:1])\n"
    "assert qmforms.all_within(qmforms.check_scalar(qmforms.eisenstein_series(4).evaluate, 4, one), 1e-8)\n"
)

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(RuntimeError):
    pass


def spawn(code):
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise BenchError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")


def median_spawn(code, runs):
    """Medians of the measured and the reference wall seconds of ``runs``
    fresh interpreters running ``code``; like every subprocess, they are
    calibrated by a bare interpreter start (``speed.Meter.for_subprocesses``)."""
    measured, reference = [], []
    with speed.Meter.for_subprocesses() as meter:
        for _ in range(runs):
            _, exc, net, scaled = meter.timed(lambda: spawn(code))
            if exc is not None:
                raise exc
            measured.append(net)
            reference.append(scaled)
    return statistics.median(measured), statistics.median(reference)


def worker(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"worker {' '.join(map(str, args))} failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def context(seed):
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qmforms", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "src_lines": src_lines}


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(line):
    print(line, flush=True)


def measure(name, seed, seconds):
    """End-to-end metrics of one workload, tracing off, in a fresh worker.

    Every timing is at reference speed (``speed.py``); the report also gives
    the measured figures and how slow the host ran.  ``ops_per_s`` is ops
    done divided by the time spent inside them, so the oracle checks between
    ops do not count."""
    r = worker("--workload", name, "--seed", seed, "--seconds", seconds, "--e2e")
    reference, measured = r["reference_latencies"], r["latencies"]
    cuts = statistics.quantiles(reference, n=10, method="inclusive")
    raw = statistics.quantiles(measured, n=10, method="inclusive")
    slowdown = statistics.median(m / x for m, x in zip(measured, reference))
    values = {
        "ops_per_s": r["ops"] / sum(reference),
        "latency_p50_ms": cuts[4] * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": r["peak_rss_mb"],
    }
    report(f"[{name}] ops_per_s       {values['ops_per_s']:.6g} 1/s  "
           f"({r['ops']} ops in {sum(reference):.3f} reference s of {r['wall_s']:.3f} s wall; one client; "
           f"measured {r['ops'] / sum(measured):.6g} 1/s)")
    report(f"[{name}] latency_p50_ms  {values['latency_p50_ms']:.6g} ms  ({r['ops']} samples; "
           f"measured {raw[4] * 1e3:.6g} ms)")
    report(f"[{name}] latency_p90_ms  {values['latency_p90_ms']:.6g} ms  "
           f"({r['ops']} samples, {sum(1 for x in reference if x > cuts[8])} beyond p90; "
           f"measured {raw[8] * 1e3:.6g} ms)")
    report(f"[{name}] host speed      measured / reference time = {slowdown:.4g} (median over ops)")
    report(f"[{name}] failed_frac     {r['failed'] / r['ops']:.6g}  ({r['failed']} of {r['ops']} failed)")
    for reason in r["reasons"]:
        report(f"[{name}]   FAILED: {reason}")
    for what, present in sorted(r["known_defects"].items()):
        report(f"[{name}] known defect    {'still present' if present else 'FIXED'}: {what}")
    report(f"[{name}] peak_rss_mb     {values['peak_rss_mb']:.6g} MB"
           f"{'  (largest child)' if name == 'cli' else ''}")
    return r, {key: metric(values[key], unit) for key, unit in END_TO_END}


def layer_metrics(name, plain, traced, probes, sweep):
    """Per-layer metrics of one workload from its traced run."""
    layers, counters, ops = traced["layers"], traced["counters"], traced["ops"]

    def calls(span):
        return layers.get(span, {}).get("calls", 0)

    def self_s(span):
        return layers.get(span, {}).get("self_s", 0.0)

    cache = traced["eisenstein_cache"]
    lookups = cache["hits"] + cache["misses"]
    cli_wall = plain.get("cli_wall_ms", {})
    values = {
        "qseries.mul.calls": (calls("qseries.mul"), "count"),
        "qseries.mul.self_s": (self_s("qseries.mul"), "s"),
        "qseries.coeff_bits_max": (counters.get("qseries.coeff_bits_max", 0), "bits"),
        "qseries.evaluate.calls": (calls("qseries.evaluate"), "count"),
        "qseries.evaluate.self_s": (self_s("qseries.evaluate"), "s"),
        "eisenstein.series.calls": (calls("eisenstein.eisenstein_series"), "count"),
        "eisenstein.series.self_s": (self_s("eisenstein.eisenstein_series"), "s"),
        "eisenstein.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "eisenstein.cache_lookups": (lookups, "count"),
        "quasimodular.qexpansion.cold.self_s": (self_s("quasimodular.qexpansion.cold"), "s"),
        "quasimodular.qexpansion.warm.self_s": (self_s("quasimodular.qexpansion.warm"), "s"),
        "quasimodular.qexpansion.calls_per_op": (calls("quasimodular.qexpansion") / ops, "1/op"),
        "quasimodular.recognize.calls": (calls("quasimodular.recognize"), "count"),
        "quasimodular.recognize.self_s": (self_s("quasimodular.recognize"), "s"),
        "almostholo.completion.self_s": (self_s("almostholo.completion"), "s"),
        "almostholo.reconstruct.self_s": (self_s("almostholo.reconstruct"), "s"),
        "vectorvalued.evaluate.calls": (calls("vectorvalued.evaluate"), "count"),
        "vectorvalued.evaluate.self_s": (self_s("vectorvalued.evaluate"), "s"),
        "vectorvalued.certify_dim_vv.self_s": (self_s("vectorvalued.certify_dim_vv"), "s"),
        "linalg.solve_unique.self_s": (self_s("linalg.solve_unique"), "s"),
        "linalg.rank.self_s": (self_s("linalg.rank"), "s"),
        "linalg.cells": (counters.get("linalg.cells", 0), "count"),
        "numverify.check_vv.self_s": (self_s("numverify.check_vv"), "s"),
        "numverify.check_quasimodular.self_s": (self_s("numverify.check_quasimodular"), "s"),
        "numverify.check_scalar.self_s": (self_s("numverify.check_scalar"), "s"),
        "numverify.residuals": (counters.get("numverify.residuals", 0), "count"),
        "numverify.wrong_verdicts": (traced["wrong_verdicts"], "count"),
        "serialize.dumps.self_s": (self_s("serialize.dumps"), "s"),
        "serialize.loads.self_s": (self_s("serialize.loads"), "s"),
        "serialize.to_document.self_s": (self_s("serialize.to_document"), "s"),
        "serialize.from_document.self_s": (self_s("serialize.from_document"), "s"),
        "exprparse.parse_form.self_s": (self_s("exprparse.parse_form"), "s"),
        "cli.interpreter_ms": (probes["interpreter_ms"], "ms"),
        "cli.import_ms": (probes["import_ms"], "ms"),
        "cli.expand.wall_ms": (cli_wall.get("expand", 0.0), "ms"),
        "cli.convert.wall_ms": (cli_wall.get("convert", 0.0), "ms"),
        "cli.verify.wall_ms": (cli_wall.get("verify", 0.0), "ms"),
        "cli.dims.wall_ms": (cli_wall.get("dims", 0.0), "ms"),
        "cli.exit_mismatch": (plain.get("cli_exit_mismatch", 0), "count"),
        "trace_overhead_frac": (1.0 - sum(plain["reference_latencies"]) / sum(traced["reference_latencies"]),
                                "ratio"),
    }
    values.update({key: (value, "ms") for key, value in sweep.items()})
    for key, (value, unit) in values.items():
        report(f"[{name}] {key:40s} {value:.6g} {unit}")
    return {key: metric(value, unit) for key, (value, unit) in values.items()}


def trace_workload(name, seed, probes, sweep):
    ops = TRACE_OPS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    plain = worker("--workload", name, "--seed", seed, "--seconds", 0, "--min-ops", ops)
    traced = worker("--workload", name, "--seed", seed, "--seconds", 0, "--min-ops", ops,
                    "--trace", 1, "--spans", spans)
    report(f"[{name}] traced {traced['ops']} ops in {sum(traced['reference_latencies']):.3f} reference s "
           f"(untraced twin {sum(plain['reference_latencies']):.3f}); spans in {os.path.relpath(spans, ROOT)}")
    return (plain, traced), layer_metrics(name, plain, traced, probes, sweep)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qmforms", "__init__.py")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'qmforms')}; "
              "run from a qmforms source checkout", file=sys.stderr)
        return 2
    names = ORDER if args.workload == "all" else [args.workload]
    prefix = (lambda name: f"{name}.") if args.workload == "all" else (lambda name: "")
    ctx = context(args.seed)
    report("context " + json.dumps(ctx, sort_keys=True))
    metrics, runs = {}, {}
    try:
        if args.trace:
            interpreter, _ = median_spawn("pass", PROBE_RUNS)
            _, imported = median_spawn("import qmforms.cli", PROBE_RUNS)
            # a bare start is the calibration, so it is reported as measured and
            # the import as reference time beyond a reference bare start
            probes = {"interpreter_ms": interpreter * 1e3,
                      "import_ms": (imported - speed.SPAWN_REFERENCE_S) * 1e3}
            sweep = worker("--sweep")
            for name in names:
                runs[name], layer = trace_workload(name, args.seed, probes, sweep)
                metrics.update({prefix(name) + key: value for key, value in layer.items()})
            results = [r for pair in runs.values() for r in pair]
        else:
            measured, setup = median_spawn(SETUP_CODE, SETUP_RUNS)
            report(f"setup_s {setup:.6g} s  (reference speed; median of {SETUP_RUNS} fresh interpreters: "
                   f"import, default_plan(), first LAMBDA self-test; measured {measured:.6g} s)")
            metrics["setup_s"] = metric(setup, "s")
            for name in names:
                runs[name], e2e = measure(name, args.seed, args.seconds)
                metrics.update({prefix(name) + key: value for key, value in e2e.items()})
            results = list(runs.values())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["ops"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"context": ctx, "runs": runs, **summary}, handle, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
