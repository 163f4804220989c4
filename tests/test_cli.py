import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

from qmforms import (
    DELTA, E2, E4, E6, QuasiModularForm, certify_dim_vv, cli, completion, dim_vv, dumps, from_quasimodular, loads,
    parse_form,
)
from qmforms.cli import MAX_PRECISION, MAX_RANK, _check_precision, main
from qmforms.exprparse import ExpressionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the boundary tests need a digit limit below 5000 digits, as the default 4300 is
needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="needs a digit limit on int <-> str conversion below 5000 digits",
)


def lifted_str(value):
    """``str(value)`` with the digit limit of int <-> str conversion lifted."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


class TestExpressionParser:
    def test_simple_sum(self):
        assert parse_form("E2^2*E4^2 + 3*E6^2") == E2 ** 2 * E4 ** 2 + 3 * E6 ** 2

    def test_rational_scalars(self):
        assert parse_form("(E4^3 - E6^2)/1728") == (E4 ** 3 - E6 ** 2) / 1728
        assert parse_form("1/2*E4 + 1/2*E4") == E4

    def test_delta_generator(self):
        assert parse_form("Delta") == (E4 ** 3 - E6 ** 2) / 1728

    def test_unary_minus(self):
        assert parse_form("-E4 + 2*E4") == E4

    def test_homogeneity_enforced(self):
        with pytest.raises(ExpressionError):
            parse_form("E2 + E4")
        # weights 8 and 12 cannot mix either
        with pytest.raises(ExpressionError):
            parse_form("E2^2*E4 + 3*E6^2")

    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            parse_form("E8")

    def test_garbage(self):
        with pytest.raises(ExpressionError):
            parse_form("E4 @ 2")

    def test_nonconstant_divisor(self):
        with pytest.raises(ExpressionError):
            parse_form("E4/E2")

    def test_sign_binds_looser_than_power_wherever_an_operand_starts(self):
        assert parse_form("E4*-E4^2") == -E4 ** 3
        assert parse_form("E4*+E6") == E4 * E6
        assert parse_form("-E4^2") == parse_form("0 - E4^2") == -E4 ** 2
        assert parse_form("E4^2 - -E4^2") == 2 * E4 ** 2
        assert parse_form("E4/-2") == parse_form("-1/2*E4") == -E4 / 2

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "E4" + ")" * 3000, "-" * 3000 + "E4"],
        ids=["nested-parentheses", "stacked-signs"],
    )
    def test_deep_nesting_is_an_expression_error(self, text):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_form(text)

    @pytest.mark.parametrize(
        "text", ["((+Delta^58)^21", "3*E4^2 + (E6", "E2*E4 + E6 )", "E4^2 - E4^x", "2*Delta^99 +"]
    )
    def test_malformed_text_is_refused_before_any_form_arithmetic(self, monkeypatch, text):
        def refuse(*args):
            raise AssertionError("form arithmetic before the whole text parsed")

        for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__pow__", "__truediv__"):
            monkeypatch.setattr(QuasiModularForm, name, refuse)
        with pytest.raises(ExpressionError):
            parse_form(text)

    def test_a_syntax_error_wins_over_a_weight_clash(self):
        with pytest.raises(ExpressionError, match="unexpected token None"):
            parse_form("E2 + E4 + (")

    def test_a_long_literal_is_a_form_or_an_expression_error(self):
        # int() refuses it under the interpreter's default digit limit, if any
        try:
            form = parse_form("9" * 5000)
        except ExpressionError as exc:
            assert "5000 digits" in str(exc)
        else:
            assert form.monomials == {(0, 0, 0): 10 ** 5000 - 1}


class TestExpand:
    def test_e4(self, capsys):
        code, out, _ = run(capsys, "expand", "E4", "--precision", "3")
        assert code == 0
        assert out.strip() == "1 + 240q + 2160q^2"

    def test_zero_form(self, capsys):
        code, out, _ = run(capsys, "expand", "E4 - E4", "--precision", "4")
        assert code == 0
        assert out.strip() == "0"

    def test_e2_squared(self, capsys):
        code, out, _ = run(capsys, "expand", "E2^2", "--precision", "2")
        assert code == 0
        assert out.strip() == "1 - 48q"

    def test_almostholo_document(self, capsys):
        doc = dumps(completion(E2, 8))
        code, out, _ = run(capsys, "expand", doc, "--precision", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Y^0: 1 - 24q - 72q^2"
        assert lines[1] == "Y^1: 1"

    def test_vectorvalued_document(self, capsys):
        doc = dumps(from_quasimodular(E2, 1))
        code, out, _ = run(capsys, "expand", doc, "--precision", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "component 0: 1 - 24q"
        assert lines[1] == "component 1: 1"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "expand", "E6", "--precision", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == ["1", "-504", "-16632"]

    # every form kind: rational coefficients, an almostholo document shorter
    # than --precision 9, rows and components that truncate to zero, and a
    # vectorvalued document with m = depth + 2
    PINNED_DOCUMENTS = [
        "E4",
        "E2*Delta^6",
        "E2^3*E6 - 5/7*E2*E4*E6 + Delta",
        dumps(completion(E2 * DELTA, 12)),
        dumps(completion(E2 ** 2 * E4 / 3, 6)),
        dumps(from_quasimodular(E2 * DELTA ** 6, 1)),
        dumps(from_quasimodular(E2 ** 2 * E4 + E2 * E6 / 2, 4)),
    ]

    def test_output_is_pinned(self, capsys):
        written = []
        for doc in self.PINNED_DOCUMENTS:
            for precision in ("1", "2", "5", "9"):
                for extra in ([], ["--json"]):
                    code, out, err = run(capsys, "expand", doc, "--precision", precision, *extra)
                    assert (code, err) == (0, ""), (doc, precision, extra)
                    written.append(out)
        text = "".join(written)
        assert text.count("\n") == 88
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "99cf8070a9babbb7124c4b79ff5caf44204d14b695c711546ccc231f96ba71f8")

    @pytest.mark.parametrize("doc, precision, expected", [
        (PINNED_DOCUMENTS[1], "2", ['{"coeffs":["0","0"],"precision":2,"weight":74}']),
        (PINNED_DOCUMENTS[3], "1", ["Y^0: 0", "Y^1: 0"]),
        (PINNED_DOCUMENTS[3], "1", ['{"precision":1,"weight":14,"ycoeffs":[["0"],["0"]]}']),
        (PINNED_DOCUMENTS[4], "9", ['{"precision":6,"weight":8,"ycoeffs":['
                                    '["1/3","64","-2976","3328","473632","3811200"],'
                                    '["2/3","144","-2448","-41664","-214992","-747936"],'
                                    '["1/3","80","720","2240","5840","10080"]]}']),
        (PINNED_DOCUMENTS[5], "5", ["component 0: 0", "component 1: 0"]),
        (PINNED_DOCUMENTS[6], "2", ["component 0: 3/2 - 72q", "component 1: 5/2 + 180q", "component 2: 1 + 240q",
                                    "component 3: 0", "component 4: 0"]),
        (PINNED_DOCUMENTS[6], "2", ['{"components":[["3/2","-72"],["5/2","180"],["1","240"],["0","0"],["0","0"]],'
                                    '"m":4,"precision":2,"weight_label_k":8}']),
    ], ids=["zero-expansion-json", "almostholo-zero-rows", "almostholo-zero-rows-json", "almostholo-shorter-json",
            "zero-top-component", "m-past-depth", "m-past-depth-json"])
    def test_edge_rows(self, capsys, doc, precision, expected):
        extra = ["--json"] if expected[0].startswith("{") else []
        code, out, _ = run(capsys, "expand", doc, "--precision", precision, *extra)
        assert (code, out.splitlines()) == (0, expected)

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "form.json"
        path.write_text(dumps(E4), encoding="utf-8")
        code, out, _ = run(capsys, "expand", str(path), "--precision", "2")
        assert code == 0
        assert out.strip() == "1 + 240q"

    def test_expression_wins_over_a_file_of_the_same_name(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "E4").write_text(dumps(E6), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "expand", "E4", "--precision", "3")[:2] == (0, "1 + 240q + 2160q^2\n")
        assert run(capsys, "expand", "./E4", "--precision", "3")[:2] == (0, "1 - 504q - 16632q^2\n")

    def test_malformed_json_reports_position(self, capsys):
        code, _, err = run(capsys, "expand", '{"format": oops}')
        assert code == 2
        assert "position" in err

    def test_deeply_nested_json_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "expand", "[" * 5000 + "]" * 5000)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_large_exponent(self, capsys):
        code, out, _ = run(capsys, "expand", "E4^3000", "--precision", "2")
        assert code == 0
        assert out.strip() == "1 + 720000q"

    def test_coefficient_beyond_the_str_digit_limit(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "expand", "--precision", "4", "--", "99^9999*E4")
        assert (code, err) == (0, "")
        first = out.split()[0]
        assert first.isdigit() and len(first) == math.floor(9999 * math.log10(99)) + 1
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_runs_where_the_digit_limit_does_not_exist(self, capsys, monkeypatch):
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, out, _ = run(capsys, "expand", "E4", "--precision", "2")
        assert (code, out.strip()) == (0, "1 + 240q")

    def test_large_coefficient_json_converts_back(self, capsys):
        code, out, _ = run(capsys, "expand", "--json", "--precision", "4", "--", "99^9999*E4")
        assert code == 0
        payload = json.loads(out)
        doc = json.dumps({"format": "almostholo", "version": 1, "weight": payload["weight"],
                          "ycoeffs": [payload["coeffs"]]})
        code, out, err = run(capsys, "convert", doc, "--to", "quasimodular")
        assert (code, err) == (0, "")
        (term,) = json.loads(out)["terms"]
        assert (term["e2"], term["e4"], term["e6"]) == (0, 1, 0)
        assert (term["num"], term["den"]) == (payload["coeffs"][0], "1")

    @needs_digit_limit
    def test_a_json_integer_past_the_digit_limit_is_a_usage_error(self, capsys):
        limit = sys.get_int_max_str_digits()
        doc = '{"format":"quasimodular","version":1,"weight":' + "4" * 5000 + ',"terms":[]}'
        code, out, err = run(capsys, "expand", doc)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"({limit} digits)" in err
        assert sys.get_int_max_str_digits() == limit

    @needs_digit_limit
    def test_an_exponent_at_the_digit_limit_gets_the_weight_error(self, capsys):
        # the exponent is within the limit, the weight 4 * e4 one digit past it
        digits = "9" * sys.get_int_max_str_digits()
        doc = ('{"format":"quasimodular","version":1,"weight":4,'
               '"terms":[{"e2":0,"e4":' + digits + ',"e6":0,"num":"1","den":"1"}]}')
        code, out, err = run(capsys, "expand", doc)
        assert (code, out) == (2, "")
        assert err == f"error: monomial E2^0 E4^{digits} E6^0 has weight 3{digits[1:]}6, not 4\n"

    @needs_digit_limit
    def test_a_literal_past_the_digit_limit_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "expand", "9" * 5000)
        assert (code, out) == (2, "")
        assert err == "error: cannot parse expression: integer literal of 5000 digits is too long\n"

    @needs_digit_limit
    @pytest.mark.parametrize("kind", ["almostholo", "vectorvalued"])
    def test_json_coefficients_past_the_digit_limit(self, capsys, kind):
        form = parse_form("(E2*E4 - 7^5200*E6)/48^9630")
        full = completion(form, 4)
        if kind == "almostholo":
            doc, key, rows = dumps(full), "ycoeffs", full.coeffs
        else:
            doc, key, rows = dumps(from_quasimodular(form, 2)), "components", [full.coefficient(r) for r in range(3)]
        code, out, err = run(capsys, "expand", "--json", "--precision", "4", doc)
        assert (code, err) == (0, "")
        written = json.loads(out)[key]
        assert written == [[lifted_str(c) for c in series.coeffs] for series in rows]
        assert max(len(text) for row in written for text in row) > 4300

    @pytest.mark.parametrize(
        "command, change",
        [
            ("expand", lambda d: d["terms"][0].update(e2="1")),
            ("expand", lambda d: d.update(version=True)),
            ("expand", lambda d: d.update(terms=5)),
            ("verify", lambda d: d.update(m="x")),
        ],
    )
    def test_mistyped_document_is_a_usage_error(self, capsys, command, change):
        doc = json.loads(dumps(E2 if command == "expand" else from_quasimodular(E2, 1)))
        change(doc)
        code, out, err = run(capsys, command, json.dumps(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConvert:
    def test_completion_and_back(self, capsys):
        code, out, _ = run(capsys, "convert", "E2", "--to", "completion", "--precision", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "almostholo"
        assert doc["ycoeffs"][1][0] == "1"
        code, out, _ = run(capsys, "convert", out.strip(), "--to", "quasimodular")
        assert code == 0
        assert loads(out.strip()) == E2

    def test_components(self, capsys):
        code, out, _ = run(capsys, "convert", "E2^2", "--to", "components")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 3
        assert loads(json.dumps(docs[1])) == 2 * E2

    def test_vvmf_and_wbasis_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", "E2^2", "--to", "vvmf", "--rank", "2")
        assert code == 0
        vv_doc = out.strip()
        assert loads(vv_doc) == from_quasimodular(E2 ** 2, 2)

        code, out, _ = run(capsys, "convert", vv_doc, "--to", "wbasis")
        assert code == 0
        parts = json.loads(out)
        assert len(parts) == 3
        decoded = [loads(json.dumps(p)) for p in parts]
        assert decoded[0].is_zero and decoded[1].is_zero
        assert decoded[2] == parse_form("1")

        code, out, _ = run(capsys, "convert", json.dumps(parts), "--to", "vvmf")
        assert code == 0
        assert loads(out.strip()) == from_quasimodular(E2 ** 2, 2)

    def test_vvmf_rank_zero(self, capsys):
        code, out, _ = run(capsys, "convert", "E4", "--to", "vvmf", "--rank", "0")
        assert code == 0
        assert loads(out.strip()) == from_quasimodular(E4, 0)

    def test_vvmf_depth_violation(self, capsys):
        code, _, err = run(capsys, "convert", "E2^2", "--to", "vvmf", "--rank", "1")
        assert code == 2
        assert "depth" in err

    def test_vvmf_weight_label_of_a_single_form(self, capsys):
        code, out, err = run(capsys, "convert", "E4", "--to", "vvmf", "--rank", "1", "--weight", "10")
        assert (code, out) == (2, "")
        assert err == "error: weight label 10 contradicts the source weight 4\n"
        code, out, _ = run(capsys, "convert", "E4", "--to", "vvmf", "--rank", "1", "--weight", "4")
        assert code == 0 and loads(out.strip()) == from_quasimodular(E4, 1)
        # a zero source has no weight of its own, so the label is what --weight says
        code, out, _ = run(capsys, "convert", "0", "--to", "vvmf", "--rank", "1", "--weight", "10")
        assert code == 0 and json.loads(out)["weight_label_k"] == 10

    def test_vvmf_of_no_parts_says_so(self, capsys):
        code, out, err = run(capsys, "convert", "[]", "--to", "vvmf")
        assert (code, out) == (2, "")
        assert err == "error: need at least one w-basis part, got an empty list\n"

    def test_wbasis_needs_vectorvalued(self, capsys):
        code, _, err = run(capsys, "convert", "E4", "--to", "wbasis")
        assert code == 2


class TestVerify:
    def test_e4_passes(self, capsys):
        code, out, err = run(capsys, "verify", "E4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 18
        assert all(json.loads(line)["relative"] < 1e-8 for line in lines)
        assert "OK" in err

    def test_e2_scalar_mode_fails(self, capsys):
        code, out, err = run(capsys, "verify", "E2", "--as-weight", "2")
        assert code == 1
        assert "FAILED" in err

    def test_e2_quasimodular_mode_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "E2")
        assert code == 0

    def test_w_type_vector_valued(self, capsys):
        doc = dumps(from_quasimodular(E2, 1))
        code, _, _ = run(capsys, "verify", doc)
        assert code == 0

    def test_almostholo_document(self, capsys):
        doc = dumps(completion(E2, 64))
        code, _, err = run(capsys, "verify", doc)
        assert code == 0
        assert "OK" in err

    def test_custom_samples(self, capsys):
        code, _, _ = run(
            capsys, "verify", "E4", "--tau", "0.5+1.3i", "--gamma", "0,-1,1,0"
        )
        assert code == 0

    def test_invalid_gamma(self, capsys):
        code, _, err = run(capsys, "verify", "E4", "--gamma", "1,2,3,4")
        assert code == 2
        assert "determinant" in err

    def test_invalid_tau(self, capsys):
        code, _, err = run(capsys, "verify", "E4", "--tau", "1.0-2.0i")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "Im tau >= 0.3" in err

    def test_low_image_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "E4", "--gamma", "1,-1,2,-1")
        assert code == 2
        assert "Im" in err

    def test_zero_source_with_odd_weight_label_is_a_usage_error(self, capsys):
        doc = json.loads(dumps(from_quasimodular(E2, 1)))
        doc["source"]["terms"] = []
        doc["source"]["weight"] = 0
        doc["weight_label_k"] = 3
        code, out, err = run(capsys, "verify", json.dumps(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "non-negative even integer, got 3" in err

    def test_bad_tolerance(self, capsys):
        code, _, _ = run(capsys, "verify", "E4", "--tolerance", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["E2", "--as-weight", "2", "--tolerance", "inf"],
            ["E4", "--tolerance", "nan"],
            ["E4", "--tau", "nan+1i"],
        ],
    )
    def test_non_finite_plan_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_bad_precision(self, capsys):
        code, _, _ = run(capsys, "expand", "E4", "--precision", "0")
        assert code == 2

    @pytest.mark.parametrize("command", ["expand", "verify", "convert"])
    def test_precision_cap(self, capsys, command):
        extra = ["--to", "completion"] if command == "convert" else []
        code, out, err = run(capsys, command, "E2", "--precision", str(MAX_PRECISION + 1), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(MAX_PRECISION) in err
        assert _check_precision(MAX_PRECISION) == MAX_PRECISION == 2 ** 14


class TestRankCap:
    """A rank parameter m past ``MAX_RANK``, in a document or from ``convert``,
    is one usage error before anything is expanded."""

    @staticmethod
    def rank_document(m, source=E4):
        return json.dumps({"format": "vectorvalued", "version": 1, "m": m, "weight_label_k": source.weight,
                           "source": json.loads(dumps(source))})

    @pytest.mark.parametrize("m", [MAX_RANK + 1, 10 ** 8])
    @pytest.mark.parametrize("argv", [["expand", "--precision", "2"], ["verify"], ["convert", "--to", "wbasis"],
                                      ["convert", "--to", "quasimodular"]])
    def test_rank_cap_of_a_document(self, capsys, argv, m):
        doc = self.rank_document(m)
        code, out, err = run(capsys, argv[0], doc, *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: the rank parameter m must be at most {MAX_RANK}, got {m}\n"
        # the same in an array of documents
        code, out, err = run(capsys, "convert", f"[{dumps(E4)},{doc}]", "--to", "vvmf")
        assert (code, out, err.count("\n")) == (2, "", 1) and str(MAX_RANK) in err

    def test_rank_cap_ends_the_1e8_document_at_once(self):
        # before the cap this expand printed 10^8 + 1 rows; the child's time limit keeps a regression out
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qmforms.cli import main; sys.exit(main(sys.argv[1:]))",
             "expand", self.rank_document(10 ** 8), "--precision", "2"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: the rank parameter m must be at most {MAX_RANK}, got 100000000\n"

    def test_rank_at_the_cap_is_accepted(self, capsys):
        code, out, _ = run(capsys, "expand", self.rank_document(MAX_RANK), "--precision", "2")
        assert code == 0 and len(out.splitlines()) == MAX_RANK + 1
        code, out, _ = run(capsys, "convert", "E4", "--to", "vvmf", "--rank", str(MAX_RANK))
        assert code == 0 and loads(out) == from_quasimodular(E4, MAX_RANK)

    @pytest.mark.parametrize("form, rank", [("E4", MAX_RANK + 1), ("E4", 10 ** 8),
                                            (f"[{dumps(E4)},{dumps(E4 * 0)}]", MAX_RANK + 1),
                                            (f"E2^{MAX_RANK + 1}", None)],
                             ids=["rank", "rank-1e8", "parts", "depth"])
    def test_rank_cap_of_convert(self, capsys, form, rank):
        extra = [] if rank is None else ["--rank", str(rank)]
        code, out, err = run(capsys, "convert", form, "--to", "vvmf", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: the rank parameter m must be at most {MAX_RANK}, got {rank or MAX_RANK + 1}\n"


class TestDims:
    def test_table_values(self, capsys):
        code, out, _ = run(capsys, "dims", "--kmax", "12", "--mmax", "2")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split()
        assert header[1:] == ["0", "1", "2"]
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert rows["12"] == ["2", "3", "4"]
        assert rows["0"] == ["1", "1", "1"]
        assert rows["4"] == ["1", "1", "2"]

    def test_classical_column(self, capsys):
        code, out, _ = run(capsys, "dims", "--kmax", "12", "--mmax", "0")
        assert code == 0
        column = [line.split()[1] for line in out.strip().splitlines()[1:]]
        assert column == ["1", "0", "1", "1", "1", "1", "2"]

    def test_one_certificate_per_row_at_mmax(self, capsys, monkeypatch):
        calls = []
        original = cli.certify_dim_vv

        def spy(k, m):
            calls.append((k, m))
            return original(k, m)

        monkeypatch.setattr(cli, "certify_dim_vv", spy)
        code, _, _ = run(capsys, "dims", "--kmax", "30", "--mmax", "5")
        assert code == 0
        assert calls == [(k, 5) for k in range(0, 31, 2)]

    def test_every_cell_is_the_formula_and_its_certificate(self, capsys):
        code, out, _ = run(capsys, "dims", "--kmax", "96", "--mmax", "12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["k\\m"] + [str(m) for m in range(13)]
        assert [line.split()[0] for line in lines[1:]] == [str(k) for k in range(0, 97, 2)]
        for line in lines[1:]:
            k, *cells = map(int, line.split())
            for m, cell in enumerate(cells):
                assert cell == dim_vv(k, m) == certify_dim_vv(k, m), (k, m)

    def test_a_failed_certificate_names_k_and_m(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "certify_dim_vv", lambda k, m: dim_vv(k, m) - (k == 8))
        code, out, err = run(capsys, "dims", "--kmax", "12", "--mmax", "3")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "k=8, m=3" in lines[0]


class TestErrorBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "(" * 3000 + "E4" + ")" * 3000],
            ["expand", "--", "-" * 3000 + "E4"],
            ["verify", "E4", "--as-weight", "100000"],
            ["verify", dumps(E4 ** 1000)],
        ],
        ids=["nested-parentheses", "stacked-signs", "huge-as-weight", "weight-4000"],
    )
    def test_former_traceback_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unexpected_exception_is_named(self, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("complex exponentiation")

        monkeypatch.setattr(cli, "check_scalar", overflow)
        _, _, err = run(capsys, "verify", "E4", "--as-weight", "4")
        assert err == "error: OverflowError: complex exponentiation\n"

    @pytest.mark.parametrize("weight", ["100000", "1006", "-100000"])
    def test_weight_beyond_float64_names_the_limit(self, capsys, weight):
        code, out, err = run(capsys, "verify", "E4", "--as-weight", weight)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: weight {weight} is outside ") and err.count("\n") == 1
        assert "..1005," in err

    def test_exponent_in_a_document_is_a_quick_usage_error(self, capsys):
        # Fraction("1e30000000") alone builds a 30-million-digit integer for
        # about a minute; the child's time limit keeps that out of this process
        doc = ('{"format":"quasimodular","version":1,"weight":4,'
               '"terms":[{"e2":0,"e4":1,"e6":0,"num":"1e30000000","den":"1"}]}')
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from qmforms.cli import main; sys.exit(main(sys.argv[1:]))",
             "expand", doc],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", doc)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "") and err == proc.stderr
        assert err.startswith("error: bad rational '1e30000000' in term: ") and err.count("\n") == 1


    def test_coefficient_beyond_float64_names_the_range(self, capsys):
        code, out, err = run(capsys, "verify", "--", "99^9999*E4")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float64 range" in err and "OverflowError" not in err


class TestImportFootprint:
    """Every command is a fresh interpreter, so what ``import qmforms.cli``
    pulls in is paid on every call."""

    def modules_after(self, code):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    def test_cli_import_leaves_out_dataclasses_and_typing(self):
        added = self.modules_after("import qmforms.cli") - self.modules_after("pass")
        assert "qmforms.cli" in added
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    def test_missing_arguments(self, capsys):
        assert main([]) == 2
