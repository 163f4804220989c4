"""Span tracing of the qmforms layers, installed from outside the package.

``install(tracer, qm)`` wraps the public functions of each module and four
hot methods on their classes.  A module function is replaced on every
binding through which it is reached: each ``qmforms`` module attribute that
holds it (``recognize`` also lives in ``qmforms.cli`` and ``qmforms``,
``eisenstein_series`` in ``quasimodular`` and ``numverify``) and each
module-level dict value that holds it.  Span names are ``<module>.<function>``
so that an in-package trace channel can reuse them.

Spans stay in memory (parallel lists) and are written once, at the end.  A
span's self time is its duration minus the time its child spans cover.
"""

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

FUNCTIONS = {
    "eisenstein": ["eisenstein_series", "delta_series"],
    "quasimodular": ["recognize"],
    "almostholo": ["completion", "component_forms", "reconstruct"],
    "vectorvalued": ["certify_dim_vv", "w_decompose", "w_compose"],
    "linalg": ["solve_unique", "rank"],
    "numverify": ["check_vv", "check_quasimodular", "check_scalar"],
    "serialize": ["dumps", "loads", "to_document", "from_document"],
    "exprparse": ["parse_form"],
    "cli": ["main", "cmd_expand", "cmd_convert", "cmd_verify", "cmd_dims"],
}

METHODS = [
    ("qseries", "QSeries", "__mul__"),
    ("qseries", "QSeries", "evaluate"),
    ("quasimodular", "QuasiModularForm", "qexpansion"),
    ("vectorvalued", "VectorValuedForm", "evaluate"),
]

MUL = "qseries.mul"
QEXPANSION = "quasimodular.qexpansion"


class Tracer:
    """Records the nested spans of one thread, plus a few counters."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counters = defaultdict(int)

    def wrap(self, name, fn, after=None, when=None):
        """``fn`` recording a span ``name``.  ``after(tracer, args, result)``
        updates counters; ``when(args)`` selects the calls that get a span."""
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def add_spans(self, spans):
        """Append spans recorded elsewhere (a subprocess), as
        (name, parent, start, end) rows with parents local to ``spans``."""
        offset = len(self.names)
        for name, parent, start, end in spans:
            self.names.append(name)
            self.parents.append(parent + offset if parent >= 0 else -1)
            self.starts.append(start)
            self.ends.append(end)

    def rows(self):
        return list(zip(self.names, self.parents, self.starts, self.ends))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.rows()):
                handle.write(json.dumps({"id": index, "name": name, "parent": parent,
                                         "start": start, "end": end}) + "\n")

    def summary(self):
        """Per span name: calls, self_s and total_s; qexpansion spans are
        split into ``cold`` (a series multiply ran inside them) and ``warm``."""
        n = len(self.names)
        covered = [0.0] * n
        has_mul = [False] * n
        for i in range(n - 1, -1, -1):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
                if has_mul[i] or self.names[i] == MUL:
                    has_mul[parent] = True
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i in range(n):
            name = self.names[i]
            total = self.ends[i] - self.starts[i]
            keys = [name]
            if name == QEXPANSION:
                keys.append(f"{name}.{'cold' if has_mul[i] else 'warm'}")
            for key in keys:
                entry = out[key]
                entry["calls"] += 1
                entry["self_s"] += total - covered[i]
                entry["total_s"] += total
        return dict(out)


def _coeff_bits(tracer, args, result):
    top = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coeffs)
    if top > tracer.counters["qseries.coeff_bits_max"]:
        tracer.counters["qseries.coeff_bits_max"] = top


def _cells(tracer, args, result):
    rows = args[0]
    tracer.counters["linalg.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _residuals(tracer, args, result):
    tracer.counters["numverify.residuals"] += len(result)


AFTER = {
    "linalg.solve_unique": _cells,
    "linalg.rank": _cells,
    "numverify.check_vv": _residuals,
    "numverify.check_quasimodular": _residuals,
    "numverify.check_scalar": _residuals,
}


def unwrap_cached(fn):
    """The lru_cache object under any tracing wrappers (for ``cache_info``)."""
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn


def package_modules():
    return [m for name, m in sys.modules.items() if name == "qmforms" or name.startswith("qmforms.")]


def _rebind(modules, original, wrapped):
    """Replace ``original`` by ``wrapped`` wherever a module exposes it."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


def install(tracer, qm):
    """Wrap every traced function and method of the loaded ``qmforms``."""
    modules = package_modules()
    for module_name, functions in FUNCTIONS.items():
        module = sys.modules[f"{qm.__name__}.{module_name}"]
        for function in functions:
            name = f"{module_name}.{function}"
            original = getattr(module, function)
            _rebind(modules, original, tracer.wrap(name, original, after=AFTER.get(name)))
    qseries = sys.modules[f"{qm.__name__}.qseries"].QSeries
    for module_name, class_name, method in METHODS:
        cls = getattr(sys.modules[f"{qm.__name__}.{module_name}"], class_name)
        original = vars(cls)[method]
        if method == "__mul__":
            # only series x series products; scalar multiples are O(N) and stay
            # in the caller's self time
            wrapped = tracer.wrap(MUL, original, after=_coeff_bits,
                                  when=lambda args: isinstance(args[1], qseries))
        else:
            wrapped = tracer.wrap(f"{module_name}.{method}", original)
        setattr(cls, method, wrapped)
