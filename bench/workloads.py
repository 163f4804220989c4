"""The four benchmark workloads: input streams, operations and checks.

Each workload is a closed loop with one client.  ``stream(seed)`` yields
plain-data inputs that depend on the seed alone; ``run(qm, inp)`` performs
one operation through the package module ``qm`` and returns plain data;
``check(oracle, inp, out, qm)`` runs outside the timed region and returns
``None`` or the reason the output is wrong.

Each stream draws its schedule (op kinds, weights, precisions, which
monomials each form has and their denominators) from a fixed generator,
cycling through shuffled strata, and the values (numerators, expression
spelling) from the seed.  The cost of an op is set by its shape, not by its coefficients,
so the work per run is the same for every seed while the inputs differ;
that keeps the spread of the metrics between seeds small.

The streams hold no input that a defect already recorded in the roadmap
makes fail, so every operation of a timed run must succeed.  Such inputs
are kept as ``probes``: each workload runs its probes once after the timed
loop and reports, per defect, whether it is still present.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- random forms -------------------------------------------------------------


def _cycle(rng, values):
    """Endless stream over ``values``, reshuffled on every pass."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def monomials_of_weight(weight, max_depth):
    return [
        (a, b, (weight - 2 * a - 4 * b) // 6)
        for a in range(min(max_depth, weight // 2) + 1)
        for b in range((weight - 2 * a) // 4 + 1)
        if (weight - 2 * a - 4 * b) % 6 == 0
    ]


def random_form(plan, rng, weight, nterms, max_depth=4, need_e2=False):
    """{(a, b, c): Fraction} with ``nterms`` monomials and a denominator in
    1..6 for each, picked by ``plan``, and numerators in -9..9 drawn from
    ``rng``; ``need_e2`` forces depth >= 1."""
    candidates = monomials_of_weight(weight, max_depth)
    picked = plan.sample(candidates, min(nterms, len(candidates)))
    if need_e2 and all(a == 0 for a, _, _ in picked):
        picked[0] = plan.choice([key for key in candidates if key[0] >= 1])
    form = {}
    for key in picked:
        num = rng.choice([n for n in range(-9, 10) if n])
        form[key] = Fraction(num, plan.randint(1, 6))
    return form


def depth(monomials):
    return max(a for a, _, _ in monomials)


def form_text(rng, monomials):
    """Expression text for a form, e.g. ``3/2*E2^2*E4 - E6^2``."""
    pieces = []
    for (a, b, c), value in sorted(monomials.items(), key=lambda kv: rng.random()):
        factors = []
        for name, e in (("E2", a), ("E4", b), ("E6", c)):
            if e and rng.random() < 0.2:
                factors.extend([name] * e)
            elif e:
                factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(value)
        if mag != 1:
            scalar = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            factors.insert(0, scalar)
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if value > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if value > 0 else f"- {body}")
    return " ".join(pieces)


# -- expand -------------------------------------------------------------------

EXPAND_WEIGHTS = range(12, 33, 2)
EXPAND_BANDS = [range(64, 112), range(112, 160), range(160, 208), range(208, 257)]


def expand_stream(seed):
    """1 cold : 3 warm.  A cold op uses a precision in 64..256 that no earlier
    op used, drawn one per quartile band in turn; a warm op repeats an
    earlier (form, precision).  Ends after 192 cold ops (bands exhausted)."""
    plan, rng = random.Random("expand:plan"), random.Random(f"expand:{seed}")
    weights = _cycle(plan, EXPAND_WEIGHTS)
    nterms = _cycle(plan, [1, 2, 3, 4])
    bands = _cycle(plan, range(len(EXPAND_BANDS)))
    free = [list(band) for band in EXPAND_BANDS]
    cold = []
    index = 0
    while True:
        if index % 4 == 0:
            band = free[next(bands)]
            if not band:
                return
            precision = band.pop(plan.randrange(len(band)))
            weight = next(weights)
            inp = {
                "kind": "cold",
                "weight": weight,
                "monomials": random_form(plan, rng, weight, next(nterms)),
                "precision": precision,
            }
            cold.append(inp)
        else:
            inp = dict(plan.choice(cold), kind="warm")
        index += 1
        yield inp


def expand_run(qm, inp):
    form = qm.QuasiModularForm(inp["weight"], inp["monomials"])
    series = form.qexpansion(inp["precision"])
    completed = qm.completion(form, inp["precision"])
    return {"series": series.coeffs, "completion": [s.coeffs for s in completed.coeffs]}


def expand_check(oracle, inp, out, qm):
    n, monomials = inp["precision"], inp["monomials"]
    reason = oracles.check_series(oracle.expand(monomials, n), out["series"])
    if reason:
        return f"qexpansion: {reason}"
    expected = oracle.completion(monomials, n)
    if len(out["completion"]) != len(expected):
        return f"completion has degree {len(out['completion']) - 1}, expected {len(expected) - 1}"
    for r, (want, got) in enumerate(zip(expected, out["completion"])):
        reason = oracles.check_series(want, got)
        if reason:
            return f"completion Yhat^{r}: {reason}"
    return None


# -- verify -------------------------------------------------------------------

CONTROL_WEIGHTS = range(4, 33, 2)
# ROADMAP item 3: true forms of weight >= 24 can FAIL through float64
# rounding, so the streams check true forms below that weight only.
TRUE_WEIGHTS = range(4, 23, 2)


def verify_stream(seed):
    """Every 5th op is a negative control that must FAIL: a depth >= 1 form,
    or a modular form at the wrong weight, checked with ``check_scalar``.
    The others are true forms checked with ``check_vv`` (m = d, d+1, d+2)
    and ``check_quasimodular``; they must PASS."""
    plan, rng = random.Random("verify:plan"), random.Random(f"verify:{seed}")
    true_weights = _cycle(plan, TRUE_WEIGHTS)
    control_weights = _cycle(plan, CONTROL_WEIGHTS)
    nterms = _cycle(plan, [1, 2, 3, 4])
    extra_rank = _cycle(plan, [0, 1, 2])
    controls = _cycle(plan, ["quasimodular", "wrong_weight"])
    index = 0
    while True:
        weight = next(control_weights if index % 5 == 4 else true_weights)
        if index % 5 == 4:
            control = next(controls)
            if control == "quasimodular":
                monomials = random_form(plan, rng, weight, next(nterms), need_e2=True)
                as_weight = weight
            else:
                monomials = random_form(plan, rng, weight, next(nterms), max_depth=0)
                as_weight = weight + 2
            inp = {"kind": control, "weight": weight, "monomials": monomials,
                   "as_weight": as_weight, "expect_pass": False}
        else:
            monomials = random_form(plan, rng, weight, next(nterms))
            inp = {"kind": "true", "weight": weight, "monomials": monomials,
                   "m": depth(monomials) + next(extra_rank), "expect_pass": True}
        index += 1
        yield inp


def verify_run(qm, inp):
    form = qm.QuasiModularForm(inp["weight"], inp["monomials"])
    plan = qm.default_plan()
    if inp["kind"] == "true":
        residuals = qm.check_vv(qm.from_quasimodular(form, inp["m"]), plan)
        residuals += qm.check_quasimodular(form, plan)
    else:
        series = form.qexpansion(plan.precision)
        residuals = qm.check_scalar(series.evaluate, inp["as_weight"], plan)
    return {
        "verdict": qm.all_within(residuals, plan.tolerance),
        "worst": qm.max_relative(residuals),
        "residuals": len(residuals),
    }


def verify_check(oracle, inp, out, qm):
    return oracles.check_verdict(inp["expect_pass"], out["verdict"])


VERIFY_PROBES = [
    ("float64 rounding fails a true form of weight >= 24 (ROADMAP item 3)",
     {"kind": "true", "weight": 32, "monomials": {(1, 6, 1): Fraction(-1, 5)}, "m": 2,
      "expect_pass": True}),
]


# -- roundtrip ----------------------------------------------------------------

ROUNDTRIP_WEIGHTS = range(4, 25, 2)
ROUNDTRIP_PRECISION = 64


def roundtrip_stream(seed):
    """Expression text -> form -> expansion -> recognize -> JSON round trip ->
    component reconstruction; every 5th op certifies dim_vv(k <= 48, m <= 6)."""
    plan, rng = random.Random("roundtrip:plan"), random.Random(f"roundtrip:{seed}")
    weights = _cycle(plan, ROUNDTRIP_WEIGHTS)
    nterms = _cycle(plan, [1, 2, 3, 4])
    dims = _cycle(plan, [(k, m) for k in range(0, 49, 2) for m in range(7)])
    index = 0
    while True:
        if index % 5 == 4:
            k, m = next(dims)
            inp = {"kind": "certify", "k": k, "m": m}
        else:
            weight = next(weights)
            monomials = random_form(plan, rng, weight, next(nterms))
            inp = {"kind": "form", "weight": weight, "monomials": monomials,
                   "depth": depth(monomials), "text": form_text(rng, monomials)}
        index += 1
        yield inp


def roundtrip_run(qm, inp):
    if inp["kind"] == "certify":
        return {"rank": qm.certify_dim_vv(inp["k"], inp["m"]), "dim": qm.dim_vv(inp["k"], inp["m"])}
    form = qm.parse_form(inp["text"])
    series = form.qexpansion(ROUNDTRIP_PRECISION)
    recognized = qm.recognize(series, inp["weight"], inp["depth"])
    text = qm.dumps(form)
    reloaded = qm.loads(text)
    rebuilt = qm.reconstruct(qm.component_forms(form, ROUNDTRIP_PRECISION))
    return {
        "weight": form.weight,
        "parsed": dict(form.monomials),
        "recognized": dict(recognized.monomials),
        "dumps": text,
        "redumps": qm.dumps(reloaded),
        "series": series.coeffs,
        "rebuilt": rebuilt.coeffs,
    }


def roundtrip_check(oracle, inp, out, qm):
    if inp["kind"] == "certify":
        want = oracles.dim_vector_valued(inp["k"], inp["m"])
        if out["rank"] != want or out["dim"] != want:
            return f"certify_dim_vv {out['rank']}, dim_vv {out['dim']}, expected {want}"
        return None
    if out["weight"] != inp["weight"] or out["parsed"] != inp["monomials"]:
        return "parse_form did not return the generating form"
    if out["recognized"] != inp["monomials"]:
        return "recognize did not return the generating form"
    if json.loads(out["dumps"]) != oracles.form_document(inp["weight"], inp["monomials"]):
        return "to_document/dumps differs from the canonical document"
    if out["redumps"] != out["dumps"]:
        return "dumps(loads(text)) is not identical to text"
    if out["rebuilt"] != out["series"]:
        return "reconstruct(component_forms(f)) differs from qexpansion"
    return oracles.check_series(oracle.expand(inp["monomials"], ROUNDTRIP_PRECISION), out["series"])


# -- cli ----------------------------------------------------------------------

PREVIOUS = "@previous-stdout"
CLI_TIMEOUT_S = 60


def _malformed(rng):
    """Inputs that must give a clean usage error (exit 2)."""
    return [
        ["expand", f"E{rng.choice([3, 5, 8])}*E4"],
        ["expand", "E4 + E6"],
        ["expand", "E4", "--precision", str(-rng.randint(0, 5))],
        ["convert", '{"format":', "--to", "completion"],
        ["convert", "E2^2*E4", "--to", "vvmf", "--rank", "1"],
        ["verify", "E4", "--gamma", f"1,{rng.randint(2, 9)},3,4"],
    ]


def _cli_probes():
    e4 = oracles.form_document(4, {(0, 1, 0): Fraction(1)})
    string_exponent = dict(e4, terms=[dict(e4["terms"][0], e4="2")])
    probes = [
        ("a string exponent in JSON traces back (ROADMAP item 4)",
         ["expand", oracles.canonical_json(string_exponent)]),
        ('"m": "x" traces back (ROADMAP item 4)',
         ["verify", oracles.canonical_json(dict(oracles.vv_document(4, {(0, 1, 0): Fraction(1)}, 0),
                                                m="x"))]),
        ("E4^3000 overflows the recursion limit (ROADMAP item 2)", ["expand", "E4^3000"]),
        ('"version": true is accepted (ROADMAP item 4)',
         ["expand", oracles.canonical_json(dict(e4, version=True))]),
    ]
    return [(what, {"sub": "malformed", "argv": argv, "expect": 2, "check": "exit"})
            for what, argv in probes]


def _argv(sub, form, *options):
    """Options first, then ``--`` so that a form starting with '-' is not
    taken for an option."""
    return [sub, *options, "--", form]


def _cli_groups(plan, rng):
    """Endless stream of op groups; a group's ops run back to back, and an op
    whose argv holds PREVIOUS receives the stdout of the op before it."""
    kinds = _cycle(plan, ["expand"] * 3 + ["completion", "vvmf", "verify", "verify", "control", "dims"])
    weights = _cycle(plan, range(4, 21, 2))
    verify_weights = _cycle(plan, TRUE_WEIGHTS)
    nterms = _cycle(plan, [1, 2, 3])
    while True:
        kind = next(kinds)
        if kind == "expand":
            weight = next(weights)
            monomials = random_form(plan, rng, weight, next(nterms))
            precision = round(8 * 32 ** plan.random())  # log-uniform in 8..256
            as_json = plan.random() < 0.7
            options = ["--precision", str(precision)] + (["--json"] if as_json else [])
            yield [{"sub": "expand", "argv": _argv("expand", form_text(rng, monomials), *options),
                    "expect": 0,
                    "check": ("expand_json" if as_json else "in_process"),
                    "monomials": monomials, "precision": precision}]
        elif kind == "completion":
            weight = next(weights)
            monomials = random_form(plan, rng, weight, next(nterms))
            text = form_text(rng, monomials)
            yield [
                {"sub": "convert", "argv": _argv("convert", text, "--to", "completion"), "expect": 0,
                 "check": "completion", "monomials": monomials},
                {"sub": "convert", "argv": _argv("convert", PREVIOUS, "--to", "quasimodular"), "expect": 0,
                 "check": "document", "document": oracles.form_document(weight, monomials)},
            ]
        elif kind == "vvmf":
            weight = next(weights)
            monomials = random_form(plan, rng, weight, next(nterms))
            m = depth(monomials) + plan.randint(0, 2)
            vv = oracles.vv_document(weight, monomials, m)
            parts = []
            for t in range(m + 1):
                part = {(0, b, c): v for (a, b, c), v in monomials.items() if a == t}
                parts.append(oracles.form_document(weight - 2 * t if part else 0, part))
            yield [
                {"sub": "convert", "argv": _argv("convert", form_text(rng, monomials), "--to", "vvmf",
                                             "--rank", str(m)),
                 "expect": 0, "check": "document", "document": vv},
                {"sub": "convert", "argv": _argv("convert", PREVIOUS, "--to", "wbasis"), "expect": 0,
                 "check": "document", "document": parts},
                {"sub": "convert", "argv": _argv("convert", PREVIOUS, "--to", "vvmf", "--rank", str(m)),
                 "expect": 0, "check": "document", "document": vv},
            ]
        elif kind == "verify":
            weight = next(verify_weights)
            monomials = random_form(plan, rng, weight, next(nterms))
            if plan.random() < 0.5:
                target = form_text(rng, monomials)
            else:
                m = depth(monomials) + plan.randint(0, 2)
                target = oracles.canonical_json(oracles.vv_document(weight, monomials, m))
            yield [{"sub": "verify", "argv": _argv("verify", target), "expect": 0, "check": "in_process",
                    "weight": weight}]
        elif kind == "control":
            weight = next(weights)
            if plan.random() < 0.5:
                monomials, as_weight = random_form(plan, rng, weight, next(nterms), need_e2=True), weight
            else:
                monomials, as_weight = random_form(plan, rng, weight, next(nterms), max_depth=0), weight + 2
            yield [{"sub": "verify", "argv": _argv("verify", form_text(rng, monomials), "--as-weight",
                                               str(as_weight)),
                    "expect": 1, "check": "in_process", "weight": weight}]
        else:
            kmax, mmax = plan.choice(range(4, 25, 2)), plan.randint(0, 3)
            yield [{"sub": "dims", "argv": ["dims", "--kmax", str(kmax), "--mmax", str(mmax)],
                    "expect": 0, "check": "dims", "kmax": kmax, "mmax": mmax}]


def cli_stream(seed):
    """One subprocess per op.  After every 9 well-formed ops (at a group
    boundary) comes one malformed input, cycling through ``_malformed``."""
    plan, rng = random.Random("cli:plan"), random.Random(f"cli:{seed}")
    malformed = []
    since = 0
    for group in _cli_groups(plan, rng):
        if since >= 9:
            if not malformed:
                malformed = _malformed(rng)
                plan.shuffle(malformed)
            yield {"sub": "malformed", "argv": malformed.pop(), "expect": 2, "check": "exit"}
            since = 0
        for op in group:
            since += 1
            yield op


def cli_command(argv):
    return [sys.executable, "-m", "qmforms.cli"] + list(argv)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


TRACE_MARK = "@qmbench-trace "


class CliRunner:
    """Runs one ``qmforms`` subprocess per op, feeding chained ops.  With a
    ``trace_sink``, the line of stderr that starts with TRACE_MARK is removed
    and its JSON payload handed to the sink."""

    def __init__(self, command=cli_command, trace_sink=None):
        self.command = command
        self.trace_sink = trace_sink
        self.env = cli_env()
        self.previous = ""

    def __call__(self, qm, inp):
        argv = [self.previous if a == PREVIOUS else a for a in inp["argv"]]
        proc = subprocess.run(self.command(argv), cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        self.previous = proc.stdout.strip()
        stderr = proc.stderr
        if self.trace_sink is not None:
            lines = stderr.splitlines(keepends=True)
            for line in lines:
                if line.startswith(TRACE_MARK):
                    self.trace_sink(json.loads(line[len(TRACE_MARK):]))
            stderr = "".join(line for line in lines if not line.startswith(TRACE_MARK))
        return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout, "stderr": stderr[-2000:]}


def in_process(qm, argv):
    """Exit code and stdout of ``qmforms.cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qm.cli.main(argv)
    return code, out.getvalue()


def cli_check(oracle, inp, out, qm):
    reason = oracles.check_exit(inp["expect"], out["exit"])
    check = inp["check"]
    if reason or check == "exit":
        return reason
    try:
        if check == "expand_json":
            coeffs = [Fraction(c) for c in json.loads(out["stdout"])["coeffs"]]
            return oracles.check_series(oracle.expand(inp["monomials"], inp["precision"]), coeffs)
        if check == "completion":
            rows = json.loads(out["stdout"])["ycoeffs"]
            expected = oracle.completion(inp["monomials"], len(rows[0]))
            if len(rows) != len(expected):
                return f"completion has {len(rows)} Yhat-coefficients, expected {len(expected)}"
            for want, row in zip(expected, rows):
                reason = oracles.check_series(want, [Fraction(x) for x in row])
                if reason:
                    return f"completion: {reason}"
            return None
        if check == "document":
            if json.loads(out["stdout"]) != inp["document"]:
                return "convert output differs from the expected document"
            return None
        if check == "dims":
            return oracles.check_dims_table(out["stdout"], inp["kmax"], inp["mmax"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output does not parse: {exc!r}"
    code, stdout = in_process(qm, out["argv"])
    if (code, stdout) != (out["exit"], out["stdout"]):
        return "stdout or exit code differs from the in-process run"
    return None


class Workload:
    """``warm``: fill the package's caches before timing.  ``probes``:
    ``(defect, input)`` pairs whose check fails while the defect is present.
    ``spawns``: each op runs a subprocess (see ``speed.Meter.for_subprocesses``)."""

    def __init__(self, name, stream, run, check, probes=(), warm=False, spawns=False):
        self.name = name
        self.stream = stream
        self.run = run
        self.check = check
        self.probes = list(probes)
        self.warm = warm
        self.spawns = spawns


WORKLOADS = {
    "expand": Workload("expand", expand_stream, expand_run, expand_check),
    "verify": Workload("verify", verify_stream, verify_run, verify_check, VERIFY_PROBES, warm=True),
    "roundtrip": Workload("roundtrip", roundtrip_stream, roundtrip_run, roundtrip_check, warm=True),
    "cli": Workload("cli", cli_stream, None, cli_check, _cli_probes(), spawns=True),
}
