"""Run one benchmark workload in this (fresh) process and print one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace 1] [--spans PATH]
    python3 bench/worker.py --sweep

The closed loop has one client: the next op starts when the previous one
has returned.  It stops at the first op boundary after ``--seconds`` once at
least ``--min-ops`` ops are done (never later than ``--seconds`` + 90 s).
Each op is timed as measured and at reference speed (``speed.py``), and
checked by its oracle as soon as it returns, outside its timed region.
``--e2e`` marks an end-to-end run (see ``run_workload``).
"""

import argparse
import json
import os
import resource
import statistics
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OVERRUN_S = 90


def load_package():
    import qmforms
    import qmforms.cli  # noqa: F401  (the cli workload checks against main())

    return qmforms


def warm_up(qm):
    """Fill the caches that verify and roundtrip ops read (every monomial at
    N = 64, and at N = 16 for certify_dim_vv), as a long-running process
    would have them."""
    for precision, max_weight, max_depth in ((64, 32, 4), (16, 48, 6)):
        for weight in range(0, max_weight + 1, 2):
            for key in workloads.monomials_of_weight(weight, max_depth):
                qm.QuasiModularForm(weight, {key: 1}).qexpansion(precision)


class Judge:
    """Checks each op right after it returns, outside its timed region, and
    keeps only the verdict: outputs are dropped, so the worker's memory is
    the package's, not a backlog of results."""

    def __init__(self, workload, qm):
        self.workload, self.qm = workload, qm
        self.oracle = oracles.ExpansionOracle()
        self.failed, self.reasons = 0, []
        self.wrong_verdicts = 0
        self.by_sub = defaultdict(list)
        self.exit_mismatch = 0

    def verdict(self, inp, out, error):
        """``None`` when the op succeeded, else the reason it failed."""
        if error is not None:
            return error
        try:
            return self.workload.check(self.oracle, inp, out, self.qm)
        except Exception as exc:  # a check that cannot read the output fails the op
            return f"check raised {type(exc).__name__}: {exc}"

    def __call__(self, index, inp, out, error, latency):
        if "sub" in inp:
            self.by_sub[inp["sub"]].append(latency)
            self.exit_mismatch += out is None or out["exit"] != inp["expect"]
        reason = self.verdict(inp, out, error)
        if reason is None:
            return
        self.failed += 1
        self.wrong_verdicts += "expect_pass" in inp or inp.get("sub") == "verify"
        self.reasons.append(f"op {index} ({inp.get('kind') or inp.get('sub')}): {reason}")


def attempt(run_op, qm, inp):
    """``(output, error)`` of one op; an op that raises is a failed op, not a crash."""
    try:
        return run_op(qm, inp), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def closed_loop(stream, run_op, qm, judge, seconds, min_ops, meter):
    """Per-op latencies, measured and at reference speed (see ``speed``),
    and the loop's wall time; ``judge`` sees every op."""
    latencies, reference = [], []
    start = perf_counter()
    deadline, cap = start + seconds, start + seconds + OVERRUN_S
    for inp in stream:
        now = perf_counter()
        if now >= deadline and (len(latencies) >= min_ops or now >= cap):
            break
        (out, error), _, took, scaled = meter.timed(lambda: attempt(run_op, qm, inp))
        latencies.append(took)
        reference.append(scaled)
        judge(len(latencies) - 1, inp, out, error, scaled)
    return latencies, reference, perf_counter() - start


def probe(workload, run_op, qm):
    """{defect: still present?} for the workload's known-defect probes."""
    judge = Judge(workload, qm)
    present = {}
    for what, inp in workload.probes:
        present[what] = judge.verdict(inp, *attempt(run_op, qm, inp)) is not None
    return present


def run_workload(name, seed, seconds, min_ops, trace, spans_path, e2e=False):
    """One workload's closed loop.  ``e2e``: an end-to-end run, which runs
    the known-defect probes after the loop and, for in-process ops, samples
    the host's speed inside ops too; a traced run and its untraced twin time
    ops between calibrations only, so that the sampling is not in any span."""
    qm = load_package()
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    cache = {"hits": 0, "misses": 0}
    if workload.warm:
        warm_up(qm)
    if name == "cli":
        if trace:
            def sink(payload):
                tracer.add_spans(payload["spans"])
                for key, value in payload["counters"].items():
                    tracer.counters[key] = (max(tracer.counters[key], value)
                                            if key.endswith("_max") else tracer.counters[key] + value)
                cache["hits"] += payload["cache"][0]
                cache["misses"] += payload["cache"][1]

            run_op = workloads.CliRunner(
                lambda argv: [sys.executable, os.path.join(HERE, "traced_cli.py")] + argv, sink)
        else:
            run_op = workloads.CliRunner()
    else:
        run_op = workload.run
        if trace:
            tracing.install(tracer, qm)
    eisenstein = tracing.unwrap_cached(qm.eisenstein_series)
    before = eisenstein.cache_info()
    judge = Judge(workload, qm)

    if workload.spawns:
        meter = speed.Meter.for_subprocesses()
    else:
        meter = speed.Meter(speed.PERIOD_S if e2e else None)
    with meter:
        latencies, reference, wall = closed_loop(workload.stream(seed), run_op, qm, judge, seconds,
                                                 min_ops, meter)

    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    after = eisenstein.cache_info()
    result = {
        "workload": name,
        "seed": seed,
        "ops": len(latencies),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "latencies": latencies,
        "reference_latencies": reference,
        "failed": judge.failed,
        "reasons": judge.reasons[:5],
        "wrong_verdicts": judge.wrong_verdicts,
        "known_defects": probe(workload, run_op, qm) if e2e else {},
    }
    if name == "cli":
        result["cli_wall_ms"] = {sub: statistics.median(v) * 1e3 for sub, v in judge.by_sub.items()}
        result["cli_exit_mismatch"] = judge.exit_mismatch
    if trace:
        result["layers"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        if name != "cli":
            cache = {"hits": after.hits - before.hits, "misses": after.misses - before.misses}
        result["eisenstein_cache"] = cache
        if spans_path:
            tracer.write(spans_path)
    return result


def timed_ms(meter, fn):
    """Milliseconds at reference speed (see ``speed``) that ``fn()`` takes."""
    _, exc, _, reference = meter.timed(fn)
    if exc is not None:
        raise exc
    return reference * 1e3


def clear_caches():
    """Empty every lru_cache of the package, so the next call is cold."""
    for module in tracing.package_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def sweep():
    """Layer timings at fixed precisions (ROADMAP item 1), medians of reps."""
    qm = load_package()
    out = {}
    with speed.Meter() as meter:
        for n, reps in ((64, 7), (256, 3), (1024, 1)):
            e4, e6 = qm.eisenstein_series(4, n), qm.eisenstein_series(6, n)
            out[f"qseries.mul.n{n}_ms"] = statistics.median(timed_ms(meter, lambda: e4 * e6)
                                                            for _ in range(reps))

            def generate():
                clear_caches()
                return timed_ms(meter, lambda: [qm.eisenstein_series(k, n) for k in (2, 4, 6)])

            out[f"eisenstein.series.n{n}_ms"] = statistics.median(generate() for _ in range(reps))
        form = qm.E2 ** 3 * qm.E4 * qm.E6 + qm.DELTA * qm.E2 ** 2
        for n, reps in ((64, 3), (256, 1)):
            def expand():
                clear_caches()
                return timed_ms(meter, lambda: form.qexpansion(n))

            out[f"quasimodular.qexpansion.cold.n{n}_ms"] = statistics.median(expand() for _ in range(reps))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int, default=100)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    parser.add_argument("--sweep", action="store_true")
    parser.add_argument("--e2e", action="store_true",
                        help="end-to-end run: sample host speed inside ops, then run the known-defect probes")
    args = parser.parse_args(argv)
    if args.sweep:
        result = sweep()
    elif args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.min_ops, args.trace,
                              args.spans, args.e2e)
    else:
        parser.error("give --workload or --sweep")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
