"""Command-line front end: expand, convert, verify, dims.

Forms are given inline as JSON documents, as expressions like
``E2^2*E4 + 3*E6^2``, or as paths to JSON files.  Text that parses as an
expression is read as one even where a file of that name exists, which
``./E4`` then names.  Exit codes: 0 success, 1
verification failure, 2 any other error; ``main`` is the one place that
turns an exception into a single ``error:`` line.
"""

import argparse
import json
import os
import sys

from .almostholo import AlmostHolomorphicForm, completion
from .exprparse import ExpressionError, parse_form
from .numverify import (
    DEFAULT_TOLERANCE,
    SamplePlan,
    all_within,
    check_quasimodular,
    check_scalar,
    check_vv,
    default_plan,
    max_relative,
)
from .qseries import DEFAULT_PRECISION, _decimal_text
from .quasimodular import QuasiModularForm, recognize
from .serialize import _canonical, from_document, to_document
from .vectorvalued import (
    GroupElement,
    VectorValuedForm,
    certify_dim_vv,
    dim_vv,
    from_quasimodular,
    w_compose,
    w_decompose,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

#: largest accepted --precision, a power of two so no cache rebuild passes it; O(N) memory per cached series
MAX_PRECISION = 2 ** 14

#: largest accepted rank parameter m of a vectorvalued document or ``convert --rank``; ``verify``
#: of a rank-256 ``E4`` document takes 0.1 s in all (2-vCPU x86-64), and ``expand`` prints m + 1 rows
MAX_RANK = 2 ** 8


class UsageError(Exception):
    pass


def _load_input(text):
    """A form object (or list of them) from JSON, an expression, or a file path."""
    stripped = text.strip()
    if not stripped:
        raise UsageError("empty form argument")
    if stripped[0] in "{[":
        payload = stripped
    else:
        try:
            return parse_form(text)
        except ExpressionError as exc:
            if not os.path.exists(stripped):
                raise UsageError(f"cannot parse expression: {exc}") from None
        with open(stripped, encoding="utf-8") as handle:
            payload = handle.read()
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise UsageError(f"JSON parse error at position {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise UsageError("JSON nested too deeply") from None
    if isinstance(doc, list):
        return [_capped(from_document(entry)) for entry in doc]
    return _capped(from_document(doc))


def _capped(form):
    """``form``, if it is no vectorvalued form of a rank parameter past ``MAX_RANK``."""
    if isinstance(form, VectorValuedForm):
        _check_rank(form.m)
    return form


def _single_form(text):
    form = _load_input(text)
    if isinstance(form, list):
        raise UsageError("expected a single form, got a JSON array")
    return form


def _check_precision(precision):
    if not 1 <= precision <= MAX_PRECISION:
        raise UsageError(f"--precision must be an integer from 1 to {MAX_PRECISION}")
    return precision


def _check_rank(m):
    if m > MAX_RANK:
        raise UsageError(f"the rank parameter m must be at most {MAX_RANK}, got {m}")
    return m


def cmd_expand(args):
    n = _check_precision(args.precision)
    form = _single_form(args.form)
    # per kind: the JSON header and key, the line label, and the rows; a
    # quasimodular form has one unlabelled row, written as a flat list
    if isinstance(form, QuasiModularForm):
        header, key, label = {"weight": form.weight, "precision": n}, "coeffs", ""
        rows = [form.qexpansion(n)]
    elif isinstance(form, AlmostHolomorphicForm):
        rows = [series.truncate(n) for series in form.coeffs]
        header, key, label = {"weight": form.weight, "precision": rows[0].precision}, "ycoeffs", "Y^{}: "
    else:  # a VectorValuedForm, the one other kind a document holds
        full = completion(form.source, n)
        rows = [full.coefficient(r) for r in range(form.m + 1)]
        header = {"m": form.m, "weight_label_k": form.weight_label, "precision": n}
        key, label = "components", "component {}: "
    if args.json:
        values = [[_decimal_text(c) for c in series.coeffs] for series in rows]
        print(_canonical({**header, key: values if label else values[0]}))
    else:
        for r, series in enumerate(rows):
            print(f"{label.format(r)}{series}")
    return EXIT_OK


def cmd_convert(args):
    form = _load_input(args.form)
    target = args.to
    _check_precision(args.precision)
    if args.rank is not None:
        _check_rank(args.rank)
    if target == "components":
        if not isinstance(form, QuasiModularForm):
            raise UsageError("--to components needs a quasimodular form")
        print(_canonical([to_document(c) for c in form.components()]))
    elif target == "completion":
        if not isinstance(form, QuasiModularForm):
            raise UsageError("--to completion needs a quasimodular form")
        print(_canonical(to_document(completion(form, args.precision))))
    elif target == "vvmf":
        if isinstance(form, list):
            if not all(isinstance(p, QuasiModularForm) for p in form):
                raise UsageError("w-basis parts must be quasimodular documents")
            vv = w_compose(form, m=args.rank, weight_label=args.weight)
        elif isinstance(form, QuasiModularForm):
            rank = args.rank if args.rank is not None else _check_rank(form.depth)
            vv = from_quasimodular(form, rank, args.weight)
        else:
            raise UsageError("--to vvmf needs a quasimodular form or an array of w-basis parts")
        print(_canonical(to_document(vv)))
    elif target == "wbasis":
        if not isinstance(form, VectorValuedForm):
            raise UsageError("--to wbasis needs a vectorvalued form")
        print(_canonical([to_document(p) for p in w_decompose(form)]))
    else:  # "quasimodular", the last of the parser's choices
        if isinstance(form, VectorValuedForm):
            result = form.source
        elif isinstance(form, AlmostHolomorphicForm):
            try:
                result = recognize(form.coeffs[0], form.weight, form.degree)
            except ValueError as exc:
                raise UsageError(f"cannot recognize the constant term: {exc}") from None
        elif isinstance(form, QuasiModularForm):
            result = form
        else:
            raise UsageError("--to quasimodular needs a form document")
        print(_canonical(to_document(result)))
    return EXIT_OK


def _parse_tau(text):
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse sample point {text!r}; expected x+yi") from None
    return value


def _parse_gamma(text):
    pieces = text.split(",")
    if len(pieces) != 4:
        raise UsageError(f"cannot parse group element {text!r}; expected a,b,c,d")
    try:
        a, b, c, d = (int(p) for p in pieces)
    except ValueError:
        raise UsageError(f"group element entries in {text!r} must be integers") from None
    return GroupElement(a, b, c, d)


def cmd_verify(args):
    form = _single_form(args.form)
    _check_precision(args.precision)
    defaults = default_plan()
    plan = SamplePlan(
        taus=tuple(map(_parse_tau, args.tau)) if args.tau else defaults.taus,
        gammas=tuple(map(_parse_gamma, args.gamma)) if args.gamma else defaults.gammas,
        tolerance=args.tolerance,
        precision=args.precision,
    )

    if args.as_weight is not None:
        if isinstance(form, QuasiModularForm):
            series = form.qexpansion(plan.precision)
            evaluator, label = series.evaluate, f"{form} (as weight {args.as_weight})"
        elif isinstance(form, AlmostHolomorphicForm):
            evaluator, label = form.evaluate, f"almostholo (as weight {args.as_weight})"
        else:
            raise UsageError("--as-weight applies to scalar forms only")
        residuals = check_scalar(evaluator, args.as_weight, plan, label=label)
    elif isinstance(form, QuasiModularForm):
        residuals = check_quasimodular(form, plan)
    elif isinstance(form, AlmostHolomorphicForm):
        residuals = check_scalar(form.evaluate, form.weight, plan, label="almostholo")
    else:  # a VectorValuedForm
        residuals = check_vv(form, plan)

    for residual in residuals:
        print(residual.json_line())
    worst = max_relative(residuals)
    ok = all_within(residuals, plan.tolerance)
    print(
        f"max relative residual {worst:.12g} against tolerance {plan.tolerance:.12g}: "
        f"{'OK' if ok else 'FAILED'}",
        file=sys.stderr,
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_dims(args):
    if args.kmax < 0 or args.mmax < 0:
        raise UsageError("--kmax and --mmax must be non-negative")
    # each row holds mmax + 1 cells; --kmax waits for the weight caps of ROADMAP item 9
    _check_rank(args.mmax)
    weights = range(0, args.kmax + 1, 2)
    header = ["k\\m"] + [str(m) for m in range(args.mmax + 1)]
    rows = [header]
    for k in weights:
        # one certificate per row: no slot's rank exceeds its size, so equality
        # at mmax puts every slot at full rank and certifies each m <= mmax too
        expected, rank = dim_vv(k, args.mmax), certify_dim_vv(k, args.mmax)
        if rank != expected:
            raise RuntimeError(
                f"dimension cross-check failed at k={k}, m={args.mmax}: "
                f"formula {expected}, basis rank {rank}"
            )
        rows.append([str(k)] + [str(dim_vv(k, m)) for m in range(args.mmax + 1)])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qmforms",
        description="Exact quasi-modular, almost holomorphic, and vector-valued "
        "modular forms for the full modular group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print a q-expansion")
    p_expand.add_argument("form")
    p_expand.add_argument("--precision", type=int, default=8)
    p_expand.add_argument("--json", action="store_true")
    p_expand.set_defaults(func=cmd_expand)

    p_convert = sub.add_parser("convert", help="convert between form kinds")
    p_convert.add_argument("form")
    p_convert.add_argument(
        "--to",
        required=True,
        choices=["components", "completion", "vvmf", "wbasis", "quasimodular"],
    )
    p_convert.add_argument("--rank", type=int, default=None)
    p_convert.add_argument("--weight", type=int, default=None)
    p_convert.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_convert.set_defaults(func=cmd_convert)

    p_verify = sub.add_parser("verify", help="check the functional equation numerically")
    p_verify.add_argument("form")
    p_verify.add_argument("--tau", action="append", metavar="x+yi")
    p_verify.add_argument("--gamma", action="append", metavar="a,b,c,d")
    p_verify.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_verify.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p_verify.add_argument("--as-weight", dest="as_weight", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dims = sub.add_parser("dims", help="dimension table with basis cross-check")
    p_dims.add_argument("--kmax", type=int, default=24)
    p_dims.add_argument("--mmax", type=int, default=4)
    p_dims.set_defaults(func=cmd_dims)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as exc:
        # a usage error or a library ValueError already says what is wrong;
        # any other exception is named so that its message makes sense
        known = isinstance(exc, (UsageError, ValueError))
        message = exc if known else f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
