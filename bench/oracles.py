"""Correctness oracles for the benchmark, independent of ``qmforms``.

Nothing here imports the package.  q-expansions are recomputed from sieve
divisor sums and multiplied as packed big integers (Kronecker substitution)
modulo the Mersenne prime 2^61 - 1, so a coefficient that differs from the
exact value is caught except with probability about 2^-61.  Dimensions come
from the closed formula for level-one modular forms, verdicts and exit codes
from what the generator knows about each input.

Every check returns ``None`` when the output is right and a one-line reason
when it is wrong.
"""

import json
from fractions import Fraction
from math import comb

PRIME = (1 << 61) - 1

# E2 = 1 - 24 sum sigma_1(n) q^n, E4 = 1 + 240 sum sigma_3, E6 = 1 - 504 sum sigma_5
_GENERATOR_FACTOR = {0: (-24, 1), 1: (240, 3), 2: (-504, 5)}

# bytes per packed slot: a product slot holds at most N * (P - 1)^2 < 2^(122 + 13)
# for N <= 8192, so 17 bytes (136 bits) never overflow into the next slot.
_SLOT = 17


def mod_rational(value):
    """A Fraction (or int) as a residue modulo PRIME."""
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, PRIME) % PRIME


def _pack(coeffs):
    return int.from_bytes(b"".join(c.to_bytes(_SLOT, "little") for c in coeffs), "little")


def mul_mod(a, b):
    """Truncated product of two residue lists by one big-integer multiply."""
    n = min(len(a), len(b))
    raw = (_pack(a[:n]) * _pack(b[:n])).to_bytes(2 * n * _SLOT + 1, "little")
    return [int.from_bytes(raw[i * _SLOT:(i + 1) * _SLOT], "little") % PRIME for i in range(n)]


def divisor_sums(power, precision):
    """sigma_power(n) for 0 <= n < precision by a sieve (sigma(0) = 0)."""
    sums = [0] * precision
    for d in range(1, precision):
        dk = d ** power
        for n in range(d, precision, d):
            sums[n] += dk
    return sums


class ExpansionOracle:
    """q-expansions of polynomials in E2, E4, E6 modulo PRIME, memoized
    for the most recent precision."""

    def __init__(self):
        self._powers = {}
        self._precision = None

    def generator(self, index, precision):
        """Residues of E2 (index 0), E4 (1) or E6 (2)."""
        return self.power(index, 1, precision)

    def power(self, index, exponent, precision):
        if precision != self._precision:
            # keep one precision only, so the oracle's memory stays small
            self._powers.clear()
            self._precision = precision
        key = (index, exponent, precision)
        if key not in self._powers:
            if exponent == 0:
                series = [1] + [0] * (precision - 1)
            elif exponent == 1:
                factor, k = _GENERATOR_FACTOR[index]
                series = [1] + [factor * s % PRIME for s in divisor_sums(k, precision)[1:]]
            else:
                half = self.power(index, exponent // 2, precision)
                series = mul_mod(half, half)
                if exponent % 2:
                    series = mul_mod(series, self.generator(index, precision))
            self._powers[key] = series
        return self._powers[key]

    def monomial(self, a, b, c, precision):
        out = self.power(0, a, precision)
        if b:
            out = mul_mod(out, self.power(1, b, precision))
        if c:
            out = mul_mod(out, self.power(2, c, precision))
        return out

    def expand(self, monomials, precision):
        """Residues of sum c_abc E2^a E4^b E6^c for a dict {(a, b, c): Fraction}."""
        total = [0] * precision
        for (a, b, c), value in monomials.items():
            scale = mod_rational(value)
            for i, x in enumerate(self.monomial(a, b, c, precision)):
                total[i] = (total[i] + scale * x) % PRIME
        return total

    def completion(self, monomials, precision):
        """Residues of each reduced component fhat_r = (1/r!) d^r f / dE2^r."""
        depth = max(a for (a, _, _) in monomials)
        out = []
        for r in range(depth + 1):
            component = {
                (a - r, b, c): value * comb(a, r)
                for (a, b, c), value in monomials.items()
                if a >= r
            }
            out.append(self.expand(component, precision))
        return out


def check_series(expected, coeffs, what="coefficient"):
    """Compare residues with a list of exact coefficients."""
    if len(coeffs) != len(expected):
        return f"{what} list has length {len(coeffs)}, expected {len(expected)}"
    for n, (want, got) in enumerate(zip(expected, coeffs)):
        if mod_rational(got) != want:
            return f"{what} of q^{n} is {got}, which disagrees with the oracle"
    return None


def dim_modular(weight):
    """dim M_k for the full modular group, from the closed formula."""
    if weight < 0 or weight % 2 or weight == 2:
        return 0
    return weight // 12 + (0 if weight % 12 == 2 else 1)


def dim_vector_valued(weight_label, m):
    """Sum of dim M_{k - 2t} for t = 0..m."""
    return sum(dim_modular(weight_label - 2 * t) for t in range(m + 1))


def form_document(weight, monomials):
    """The canonical quasimodular JSON document, built independently."""
    terms = [
        {"e2": a, "e4": b, "e6": c, "num": str(v.numerator), "den": str(v.denominator)}
        for (a, b, c), v in sorted(monomials.items())
        if v
    ]
    return {"format": "quasimodular", "version": 1, "weight": weight, "terms": terms}


def vv_document(weight, monomials, m):
    return {
        "format": "vectorvalued",
        "version": 1,
        "m": m,
        "weight_label_k": weight,
        "source": form_document(weight, monomials),
    }


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_verdict(expected_pass, verdict):
    """A transformation-law verdict against the known truth of the input."""
    if verdict != expected_pass:
        want = "pass" if expected_pass else "fail"
        return f"verdict {'pass' if verdict else 'fail'}, expected {want}"
    return None


def check_exit(expected, returncode):
    if returncode != expected:
        return f"exit code {returncode}, expected {expected}"
    return None


def parse_dims_table(text):
    """{(k, m): dim} from the table printed by ``qmforms dims``."""
    lines = [line.split() for line in text.strip().splitlines()]
    ranks = [int(x) for x in lines[0][1:]]
    table = {}
    for row in lines[1:]:
        k = int(row[0])
        for m, cell in zip(ranks, row[1:]):
            table[(k, m)] = int(cell)
    return table


def check_dims_table(text, kmax, mmax):
    try:
        table = parse_dims_table(text)
    except (ValueError, IndexError):
        return "dims table does not parse"
    expected = {
        (k, m): dim_vector_valued(k, m) for k in range(0, kmax + 1, 2) for m in range(mmax + 1)
    }
    if table != expected:
        wrong = sorted(key for key in expected if table.get(key) != expected[key])
        return f"dims table wrong at (k, m) = {wrong[:3]}"
    return None
