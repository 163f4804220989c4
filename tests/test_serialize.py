import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmforms import (
    E2,
    E4,
    E6,
    FormDocumentError,
    QuasiModularForm,
    completion,
    dumps,
    format_series,
    from_document,
    from_quasimodular,
    loads,
    parse_form,
    to_document,
)
from qmforms.qseries import _decimal_int, _decimal_text

from _oracles import all_monomials, random_form


class TestQuasiModularDocuments:
    def test_round_trip(self):
        rng = random.Random(101)
        for _ in range(20):
            f = random_form(rng)
            assert loads(dumps(f)) == f

    def test_canonical_text_is_stable(self):
        f = QuasiModularForm(6, {(1, 1, 0): Fraction(-3, 7), (0, 0, 1): 2})
        text = dumps(f)
        assert dumps(loads(text)) == text

    def test_schema_fields(self):
        doc = to_document(E2 * E4)
        assert doc["format"] == "quasimodular"
        assert doc["version"] == 1
        assert doc["weight"] == 6
        assert doc["terms"] == [{"e2": 1, "e4": 1, "e6": 0, "num": "1", "den": "1"}]

    def test_rational_strings(self):
        f = QuasiModularForm(12, {(0, 3, 0): Fraction(1, 1728), (0, 0, 2): Fraction(-1, 1728)})
        doc = to_document(f)
        nums = sorted(term["num"] for term in doc["terms"])
        assert nums == ["-1", "1"]
        assert all(term["den"] == "1728" for term in doc["terms"])
        assert loads(dumps(f)) == f

    def test_quasimodular_documents_skip_the_fraction_view(self, monkeypatch):
        # to_document and from_document read and build integer numerators only
        forms = [E2 ** 2 * Fraction(-6, 4) + E4 / 3, E4 * E6 / 7 - E2 * E4 ** 2 * 3, QuasiModularForm(0, {})]

        def refuse(form):
            raise AssertionError("the Fraction view was built")

        monkeypatch.setattr(QuasiModularForm, "monomials", property(refuse))
        texts = [dumps(f) for f in forms]
        assert [loads(text) for text in texts] == forms
        # over the form's one denominator 6, each term is written in its own lowest terms
        assert forms[0].denominator == 6
        assert json.loads(texts[0])["terms"] == [{"e2": 0, "e4": 1, "e6": 0, "num": "1", "den": "3"},
                                                 {"e2": 2, "e4": 0, "e6": 0, "num": "-3", "den": "2"}]


class TestAlmostHoloDocuments:
    def test_round_trip(self):
        rng = random.Random(103)
        for _ in range(10):
            F = completion(random_form(rng, max_weight=14, max_depth=4), 12)
            assert loads(dumps(F)) == F

    def test_schema_fields(self):
        doc = to_document(completion(E2, 4))
        assert doc["format"] == "almostholo"
        assert doc["weight"] == 2
        assert doc["ycoeffs"][0] == ["1", "-24", "-72", "-96"]
        assert doc["ycoeffs"][1] == ["1", "0", "0", "0"]


class TestVectorValuedDocuments:
    def test_round_trip(self):
        rng = random.Random(107)
        for _ in range(10):
            f = random_form(rng)
            F = from_quasimodular(f, f.depth + rng.randint(0, 2))
            assert loads(dumps(F)) == F

    def test_schema_fields(self):
        doc = to_document(from_quasimodular(E2, 1))
        assert doc["format"] == "vectorvalued"
        assert doc["m"] == 1
        assert doc["weight_label_k"] == 2
        assert doc["source"]["format"] == "quasimodular"

    def test_zero_source_keeps_weight_label(self):
        zero = QuasiModularForm(0, {})
        F = from_quasimodular(zero, 3, weight_label=8)
        again = loads(dumps(F))
        assert again == F and again.weight_label == 8 and again.m == 3


SAMPLES = {
    "quasimodular": E2,
    "almostholo": completion(E2, 4),
    "vectorvalued": from_quasimodular(E2, 1),
}

# (sample kind, path to the value to replace, replacement)
MISTYPED = [
    ("quasimodular", ("version",), True),
    ("quasimodular", ("version",), 1.0),
    ("quasimodular", ("weight",), 2.0),
    ("quasimodular", ("weight",), "2"),
    ("quasimodular", ("terms",), 5),
    ("quasimodular", ("terms",), {"e2": 1}),
    ("quasimodular", ("terms", 0), 7),
    ("quasimodular", ("terms", 0), [1, 0, 0]),
    ("quasimodular", ("terms", 0, "e2"), "1"),
    ("quasimodular", ("terms", 0, "e4"), False),
    ("quasimodular", ("terms", 0, "e6"), 0.0),
    ("quasimodular", ("terms", 0, "e2"), None),
    ("almostholo", ("weight",), True),
    ("almostholo", ("ycoeffs",), "1"),
    ("almostholo", ("ycoeffs",), []),
    ("almostholo", ("ycoeffs", 0), 5),
    ("almostholo", ("ycoeffs", 0), "1"),
    ("almostholo", ("ycoeffs", 0), []),
    ("almostholo", ("ycoeffs", 0, 0), "1/0"),
    ("vectorvalued", ("m",), "x"),
    ("vectorvalued", ("m",), 1.5),
    ("vectorvalued", ("m",), True),
    ("vectorvalued", ("weight_label_k",), "2"),
    ("vectorvalued", ("source",), 5),
    ("vectorvalued", ("source", "terms"), 5),
]


@pytest.fixture
def lifted():
    """Run the test under the interpreter's default digit limit of int <-> str
    conversion; ``lifted(fn)`` calls ``fn`` with the limit lifted."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no digit limit")
    old = sys.get_int_max_str_digits()
    default = sys.int_info.default_max_str_digits

    def call(fn):
        sys.set_int_max_str_digits(0)
        try:
            return fn()
        finally:
            sys.set_int_max_str_digits(default)

    sys.set_int_max_str_digits(default)
    yield call
    sys.set_int_max_str_digits(old)


class TestBeyondTheDigitLimit:
    """Coefficients of more digits than int <-> str conversion takes by
    default are written and read as with the limit lifted."""

    @pytest.mark.parametrize("text", ["48^9630", "(E2*E4 - 7^5200*E6)/48^9630", "-(10^4300 + 1)*E4^2"])
    def test_forms_write_and_read_back(self, lifted, text):
        form = parse_form(text)
        written = {
            "str": lambda: str(form),
            "format_series": lambda: format_series(form.qexpansion(3)),
            "dumps": lambda: dumps(form),
            "dumps(completion)": lambda: dumps(completion(form, 3)),
        }
        for what, write in written.items():
            assert write() == lifted(write), what
        assert loads(dumps(form)) == form
        assert loads(dumps(completion(form, 3))) == completion(form, 3)

    @pytest.mark.parametrize("n", [10 ** 4299, 10 ** 4300, -(10 ** 4300) + 1, 2 ** 14284, -(7 ** 40000), 3 ** 2 ** 14],
                             ids=["10^4299", "10^4300", "1-10^4300", "2^14284", "-7^40000", "3^2^14"])
    def test_int_text_round_trip(self, lifted, n):
        text = lifted(lambda: str(n))
        assert _decimal_text(n) == text and _decimal_int(text) == n
        assert _decimal_text(Fraction(n, 3 ** 9100)) == lifted(lambda: str(Fraction(n, 3 ** 9100)))
        assert _decimal_int("+00" + text.lstrip("-")) == abs(n)

    @pytest.mark.parametrize("tail", ["+", "-1", " 2", "x", "_0", "\u0661"])
    def test_long_text_of_other_than_digits_raises(self, lifted, tail):
        with pytest.raises(ValueError):
            _decimal_int("1" * 5000 + tail)


class TestErrors:
    def test_unknown_format(self):
        with pytest.raises(FormDocumentError):
            from_document({"format": "mystery", "version": 1})

    def test_missing_fields(self):
        with pytest.raises(FormDocumentError):
            from_document({"format": "quasimodular", "version": 1})

    def test_bad_version(self):
        with pytest.raises(FormDocumentError):
            from_document({"format": "quasimodular", "version": 99, "weight": 2, "terms": []})

    def test_non_object(self):
        with pytest.raises(FormDocumentError):
            from_document([1, 2, 3])

    def test_bad_rational(self):
        doc = {
            "format": "quasimodular",
            "version": 1,
            "weight": 2,
            "terms": [{"e2": 1, "e4": 0, "e6": 0, "num": "x", "den": "1"}],
        }
        with pytest.raises(FormDocumentError):
            from_document(doc)

    def test_rationals_only_in_the_forms_to_document_writes(self):
        # [sign]digits and [sign]digits/digits; Fraction() also reads exponents
        doc = to_document(E2)
        for text in ("1e3", "2E-1", "1.5", "1_000", " 3", "3/", "1/2/3", "x"):
            doc["terms"][0]["num"] = text
            with pytest.raises(FormDocumentError, match=r"^bad rational .* in term: "):
                from_document(doc)
        for text, value in (("-3", -3), ("+3", 3), ("-3/4", Fraction(-3, 4)), ("06/8", Fraction(3, 4))):
            doc["terms"][0]["num"] = text
            assert from_document(doc) == E2 * value

    def test_inhomogeneous_terms(self):
        doc = {
            "format": "quasimodular",
            "version": 1,
            "weight": 4,
            "terms": [{"e2": 1, "e4": 0, "e6": 0, "num": "1", "den": "1"}],
        }
        with pytest.raises(FormDocumentError):
            from_document(doc)

    def test_depth_violation_in_vectorvalued(self):
        doc = {
            "format": "vectorvalued",
            "version": 1,
            "m": 0,
            "weight_label_k": 2,
            "source": to_document(E2),
        }
        with pytest.raises(FormDocumentError):
            from_document(doc)

    @pytest.mark.parametrize(
        "kind, path, value",
        MISTYPED,
        ids=[f"{k}.{'.'.join(map(str, p))}={json.dumps(v)}" for k, p, v in MISTYPED],
    )
    def test_mistyped_values_raise_document_errors(self, kind, path, value):
        doc = to_document(SAMPLES[kind])
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(FormDocumentError):
            loads(json.dumps(doc))

    def test_json_error_carries_position(self):
        with pytest.raises(json.JSONDecodeError):
            json.loads('{"format": quasimodular}')


@st.composite
def quasimodular_forms(draw):
    """Up to four monomials of one even weight, with rational coefficients
    (zero among them, so the zero form occurs too)."""
    weight = 2 * draw(st.integers(0, 12))
    chosen = draw(st.lists(st.sampled_from(all_monomials(weight)), max_size=4, unique=True))
    coefficients = st.fractions(min_value=-99, max_value=99, max_denominator=9)
    return QuasiModularForm(weight, {key: draw(coefficients) for key in chosen})


@st.composite
def forms(draw):
    """A quasi-modular form, its completion or a vector-valued form wrapping it."""
    f = draw(quasimodular_forms())
    kind = draw(st.sampled_from(["quasimodular", "almostholo", "vectorvalued"]))
    if kind == "almostholo":
        return completion(f, draw(st.integers(1, 6)))
    if kind == "vectorvalued":
        label = 2 * draw(st.integers(0, 12)) if f.is_zero else None
        return from_quasimodular(f, f.depth + draw(st.integers(0, 2)), label)
    return f


def _paths(node, path=()):
    """The path to every object member and array entry of a document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(forms())
    def test_loads_inverts_dumps(self, form):
        assert loads(dumps(form)) == form

    @settings(max_examples=200, deadline=None)
    @given(forms(), st.data())
    def test_one_replaced_field_loads_or_raises_document_error(self, form, data):
        doc = to_document(form)
        path = data.draw(st.sampled_from(list(_paths(doc))))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from([True, 4.0, "4", [], {}, None, -1]))
        try:
            loaded = loads(json.dumps(doc))
        except FormDocumentError:
            return
        # whatever loads accepts, dumps writes in a form that loads accepts again
        assert loads(dumps(loaded)) == loaded
