"""JSON documents for the three form kinds.

Documents are tagged with a ``format`` field (quasimodular / almostholo /
vectorvalued) and a format ``version``.  Rationals are carried as decimal
strings, ``[sign]digits`` or ``[sign]digits/digits``, so round trips are
bit-exact; serialization is canonical (sorted keys, sorted terms, compact
separators).
"""

import json
import re
from math import gcd

from .almostholo import AlmostHolomorphicForm
from .qseries import QSeries, _decimal_int, _decimal_text, _over_lcm
from .quasimodular import QuasiModularForm
from .vectorvalued import VectorValuedForm

FORMAT_VERSION = 1


class FormDocumentError(ValueError):
    """A document does not match the expected schema."""


# the two forms to_document writes; Fraction() would also take exponents,
# and "1e30000000" would build a 30-million-digit integer
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text, where):
    """``text`` as ints (numerator, denominator > 0), refused as ``Fraction(text)`` refuses it."""
    try:
        match = _RATIONAL.fullmatch(str(text))
        if not match:
            raise ValueError("expected [sign]digits or [sign]digits/digits")
        num, den = _decimal_int(match[1]), _decimal_int(match[2] or "1")
        if not den:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        return num, den
    except (ValueError, ZeroDivisionError) as exc:
        raise FormDocumentError(f"bad rational {text!r} in {where}: {exc}") from None


def to_document(form):
    """Build the JSON-ready dict for a form object."""
    if isinstance(form, QuasiModularForm):
        terms = [
            {"e2": a, "e4": b, "e6": c, "num": _decimal_text(n // g), "den": _decimal_text(form.denominator // g)}
            for (a, b, c), n in sorted(form.numerators.items())
            for g in (gcd(n, form.denominator),)
        ]
        return {
            "format": "quasimodular",
            "version": FORMAT_VERSION,
            "weight": form.weight,
            "terms": terms,
        }
    if isinstance(form, AlmostHolomorphicForm):
        return {
            "format": "almostholo",
            "version": FORMAT_VERSION,
            "weight": form.weight,
            "ycoeffs": [[_decimal_text(c) for c in series.coeffs] for series in form.coeffs],
        }
    if isinstance(form, VectorValuedForm):
        return {
            "format": "vectorvalued",
            "version": FORMAT_VERSION,
            "m": form.m,
            "weight_label_k": form.weight_label,
            "source": to_document(form.source),
        }
    raise TypeError(f"cannot serialize {type(form).__name__}")


_JSON_TYPES = {int: "integer", list: "array", dict: "object"}


def _checked(value, kind, what):
    """``value`` if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise FormDocumentError(
            f"{what} must be a JSON {_JSON_TYPES[kind]}, got {json.dumps(value, default=repr)}"
        )
    return value


def _require(doc, key, where, kind=None):
    if key not in doc:
        raise FormDocumentError(f"missing field {key!r} in {where} document")
    if kind is None:
        return doc[key]
    return _checked(doc[key], kind, f"field {key!r} in {where} document")


def from_document(doc):
    """Rebuild a form object from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise FormDocumentError(f"expected a JSON object, got {type(doc).__name__}")
    kind = _require(doc, "format", "form")
    version = _require(doc, "version", kind, int)
    if version != FORMAT_VERSION:
        raise FormDocumentError(f"unsupported format version {version}")
    try:
        if kind == "quasimodular":
            weight = _require(doc, "weight", kind, int)
            keys, values = [], []
            for term in _require(doc, "terms", kind, list):
                _checked(term, dict, "each term")
                keys.append(tuple(_require(term, e, "term", int) for e in ("e2", "e4", "e6")))
                (p, q), (r, s) = (_parse_rational(_require(term, f, "term"), "term") for f in ("num", "den"))
                if r == 0:
                    raise FormDocumentError("zero denominator in term")
                values.append((p * s, q * r))  # the value (p/q) / (r/s)
            numerators, (nums, den) = dict.fromkeys(keys, 0), _over_lcm(values)
            for key, n in zip(keys, nums):
                numerators[key] += n
            return QuasiModularForm(weight, numerators) / den
        if kind == "almostholo":
            weight = _require(doc, "weight", kind, int)
            rows = _require(doc, "ycoeffs", kind, list)
            coeffs = [
                QSeries._from_ints(*_over_lcm(_parse_rational(x, "ycoeffs")
                                              for x in _checked(row, list, "ycoeffs row")))
                for row in rows
            ]
            return AlmostHolomorphicForm(weight, coeffs)
        if kind == "vectorvalued":
            m = _require(doc, "m", kind, int)
            weight_label = _require(doc, "weight_label_k", kind, int)
            source = from_document(_require(doc, "source", kind))
            if not isinstance(source, QuasiModularForm):
                raise FormDocumentError("vectorvalued source must be a quasimodular document")
            return VectorValuedForm(source, m, weight_label)
    except ValueError as exc:
        raise FormDocumentError(str(exc)) from None
    raise FormDocumentError(f"unknown format {kind!r}")


def _canonical(payload):
    """Canonical one-line JSON text: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dumps(form):
    """Canonical one-line JSON text for a form object."""
    return _canonical(to_document(form))


def loads(text):
    """Parse JSON text into a form object."""
    return from_document(json.loads(text))
