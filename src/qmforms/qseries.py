"""Truncated q-expansions with exact rational coefficients.

Every holomorphic object downstream is carried by a ``QSeries``: a finite
list of Fourier coefficients in q = exp(2*pi*i*tau), kept as integer
numerators over one common denominator.  Arithmetic is exact and truncates
to the shorter operand; precision is never extended silently.  Products use
Kronecker substitution at the two points x = +-2^s: the even- and the
odd-indexed coefficients of each operand packed apart into bigints, two
products of half the bit length, a square's operand packed once, and only
the low bits of each product formed; a constant operand only scales the
other.  The normalized derivative is D = q d/dq.  Evaluation at tau sums
the float coefficients against a table of the powers of q, kept per
(tau, N) with N the longest series evaluated in the call, and ends a sum
where no later term can change it under round to nearest.  The ``Fraction``
view ``coeffs`` is built by ``_fractions``, which sets each reduced
Fraction's two slots after one gcd: the constructor's type checks and
renormalization of known ints were most of a view's cost.  Over the
denominator 1 neither ``_fractions`` nor ``_lowest_terms`` takes a gcd.
An expansion cache (``_prefix_cache``) rebuilds a key at the next power of
two, so at most once per power of two its requests cross.
"""

import cmath
import decimal
import functools
import math
from bisect import bisect_right
from collections import OrderedDict, namedtuple
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul, neg

#: default number of stored coefficients (of q^0 ... q^(N-1))
DEFAULT_PRECISION = 64

#: most keys an expansion cache holds; the least recently used goes first
CACHE_KEYS = 1024
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

# Cocycle constant of E2:  E2(g tau) = j^2 E2(tau) + LAMBDA * c * j with
# j = c*tau + d and LAMBDA = 6/(pi*i) = -6i/pi.  Rationally 2*pi*i*LAMBDA = 12,
# which is why reduced data stays in Q; LAMBDA itself enters only at the
# complex-evaluation boundary.
LAMBDA = complex(0.0, -6.0 / math.pi)


def yhat(y):
    """Numeric value of the reduced non-holomorphic variable -3/(pi*y)."""
    return -3.0 / (math.pi * y)


class Evaluation(namedtuple("Evaluation", "value truncation_error")):
    """A complex series value together with a truncation-tail estimate."""

    __slots__ = ()


def _weighted_value(weights, values):
    """``Evaluation(sum w * value, sum |w| * tail)`` over the weights and the
    ``(value, tail)`` pairs zipped with them, added in order from 0j and 0.0."""
    total, error = 0j, 0.0
    for w, (value, tail) in zip(weights, values):
        total += w * value
        error += abs(w) * tail
    return Evaluation(total, error)


def _weighted_sum(terms, precision, den=1):
    """The exact sum of weight * series over ``(weight, QSeries)`` pairs, over
    ``den`` and truncated to ``precision``: every term over one common
    denominator, its integer numerators added in one pass, one reduction at
    the end.  The exact counterpart of ``_weighted_value``.  The package
    passes int weights and a rational scale as ``den``; a Fraction weight
    sums exactly too."""
    # a bad precision is refused before any term is built
    n = _precision(precision)
    terms = list(terms)
    scales, common = _over_lcm((w.numerator, w.denominator * s.denominator) for w, s in terms)
    rows = zip(scales, (s.numerators for _, s in terms))
    # the first term's scaled numerators start the sum; no terms sum to zero
    scale, nums = next(rows, (0, (0,) * n))
    total = [scale * x for x in nums[:n]]
    for scale, nums in rows:
        total = [t + scale * x for t, x in zip(total, nums)]
    return QSeries._from_ints(total, common * den)


def _powers(base, count):
    """[base^0, ..., base^count], each the previous one times ``base``."""
    return list(accumulate([base] * count, mul, initial=base ** 0))


def _evaluations(series, tau):
    """Evaluate each q-series at tau in the upper half-plane, from one table
    of powers of q = exp(2*pi*i*tau): the double-precision truncated sum,
    accumulated in ascending order of n so that extending the precision never
    perturbs the shared coefficients' part, and the tail |q|^N / (1 - |q|).
    Each series keeps its values by tau, at most ``CACHE_KEYS`` of them, and
    the table is looked up only if some series has no value kept at tau.

    A sum ends at n = k once big (1 + 8u) tails[k] < ulp(T)/4 for both totals
    T, big the largest |coefficient| and tails[k] the largest |Re q^n| or
    |Im q^n| at n >= k: rounding is monotonic, so each later term d has
    |d| < ulp(T)/4, under half the gap on either side of T, and T + d rounds
    to T (round to nearest; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2.1-2.2).  A zero total (never -0.0) never ends a
    sum, but a part whose table is all zero (Im q^n at Re tau = 0) totals 0.0
    at any n and is left out.  k is predicted where big tails[k] < 2^-57
    |c0 + c1 q| in each part left in, checked once, and on a miss the rest is
    summed.  The rule holds for left-to-right sums only: ``math.fsum`` (ROADMAP
    item 5) must re-derive it."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError(f"tau must lie in the upper half-plane, got Im tau = {tau.imag}")
    out, table = [], None
    for s in series:
        values = s._values
        if values is None:
            values = s._values = {}
        evaluation = values.get(tau)
        if evaluation is None:
            if table is None:
                reals, imags, tails, aq = table = _q_table(tau, max(len(t.numerators) for t in series))
                flat = not any(imags[1:2])
            if len(values) >= CACHE_KEYS:
                values.clear()
            length = len(s.numerators)
            coeffs = s._float_coeffs()
            lead = min(abs(coeffs[0] + coeffs[1] * reals[1]),
                       math.inf if flat else abs(coeffs[1] * imags[1])) if length > 1 else 0.0
            cut = bisect_right(tails, -lead * 2.0 ** -57 / s._big, hi=length, key=neg) if lead else length
            # two plain float sums, not sum() (compensated from Python 3.12 on) or math.fsum: they round
            # like the complex total += c * q^n, whose parts c*x - 0*y and c*y + 0*x differ from c*x and
            # c*y at most in the sign of a zero, as a zero coefficient's term does; a total from +0.0 ignores both
            terms = zip(coeffs, reals, imags)
            re = im = 0.0
            for c, x, y in islice(terms, cut):
                re += c * x
                im += c * y
            ulp = math.ulp(re) if flat else min(math.ulp(re), math.ulp(im))
            if not s._big * (1 + 8 * 2.0 ** -53) * tails[cut] < ulp / 4:
                for c, x, y in terms:
                    re += c * x
                    im += c * y
            tail = aq ** length / (1.0 - aq) if aq < 1.0 else math.inf
            evaluation = values[tau] = Evaluation(complex(re, im), tail)
        out.append(evaluation)
    return out


def _power(base, exponent, one):
    """``base ** exponent`` by binary powering; ``one`` is the 0th power."""
    _natural(exponent, "exponent")
    result = one
    while exponent:
        if exponent & 1:
            result = base if result is one else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _prefix_cache(build):
    """Memoize ``build(*key, precision)``, keeping per key the longest
    result built so far: a shorter request truncates it (a hit), a longer
    one rebuilds it at the least power of two at or above the request (a
    miss; a key's first build is at the request).  So a key is rebuilt at
    most once per power of two its requests cross, and an entry is under
    twice its longest request.  At most ``CACHE_KEYS`` keys stay, least
    recently used out first; a left-out precision gets build's default.
    Each key argument must pass ``_natural``, and the precision ``_precision``."""
    entries = OrderedDict()
    counts = {"hits": 0, "misses": 0}
    keys = build.__code__.co_argcount - 1
    names = build.__code__.co_varnames[:keys]

    @functools.wraps(build)
    def cached(*args):
        key, (precision,) = args[:keys], args[keys:] or build.__defaults__
        # checked before the lookup, where 4.0 or True would find the entry
        # of 4 or 1; a refused argument is neither a hit nor a miss, and the
        # entry stays until build returns, so a refused build keeps it
        for value, name in zip(key, names):
            _natural(value, name)
        _precision(precision)
        series = entries.get(key)
        if series is None or series.precision < precision:
            grown = precision if series is None else 1 << (precision - 1).bit_length()
            entries[key] = series = build(*key, grown)
            counts["misses"] += 1
        else:
            counts["hits"] += 1
        entries.move_to_end(key)
        if len(entries) > CACHE_KEYS:
            entries.popitem(last=False)
        return series.truncate(precision)

    def cache_clear():
        entries.clear()
        counts.update(hits=0, misses=0)

    cached.cache_info = lambda: _CacheInfo(counts["hits"], counts["misses"], CACHE_KEYS, len(entries))
    cached.cache_clear = cache_clear
    return cached


@functools.lru_cache(maxsize=CACHE_KEYS)
def _q_table(tau, precision):
    """``(reals, imags, tails, |q|)``: the real and the imaginary parts of q^0,
    ..., q^(precision-1) for q = exp(2*pi*i*tau); at each n = 0..precision the
    largest |Re q^k| or |Im q^k| over k >= n (0.0 at n = precision); and |q|."""
    q = cmath.exp(2j * math.pi * tau)
    powers = _powers(q, precision - 1)
    reals, imags = tuple(p.real for p in powers), tuple(p.imag for p in powers)
    tails = accumulate(map(max, map(abs, reversed(reals)), map(abs, reversed(imags))), max, initial=0.0)
    return reals, imags, tuple(tails)[::-1], abs(q)


def _exact(value):
    """``value`` if it is an int or Fraction: both have numerator and denominator."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact integer or Fraction, got {type(value).__name__}")


def _over_lcm(pairs):
    """The rationals n / d, d != 0, of ``pairs`` as integer numerators over their least
    common (positive) denominator, and that denominator: with ``_lowest_terms``, the
    one rule that keeps series and forms as integers over one denominator."""
    pairs = list(pairs)
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _lowest_terms(nums, den):
    """``nums`` (itself when the gcd is 1) and ``den`` > 0, their gcd divided out;
    over ``den`` 1 nothing divides out, and no gcd is taken."""
    if den == 1:
        return nums, 1
    g = math.gcd(den, *nums)
    return ([n // g for n in nums] if g > 1 else nums), den // g


def _fractions(nums, den):
    """A list of the reduced ``Fraction`` n / den of each int n of ``nums``, for an int
    ``den`` > 0: one gcd each (none over ``den`` 1), then the two slots set as
    CPython 3.12's private ``Fraction._from_coprime_ints`` does, without the
    constructor's checks."""
    out, new = [], object.__new__
    for n in nums:
        g = math.gcd(n, den) if den != 1 else 1
        f = new(Fraction)
        if g == 1:
            f._numerator, f._denominator = n, den
        else:
            f._numerator, f._denominator = n // g, den // g
        out.append(f)
    return out


def _fraction_map(numerators, den):
    """The ``Fraction`` view of a dict of int numerators over ``den`` > 0: each
    key's reduced n / den, built by ``_fractions``."""
    return dict(zip(numerators, _fractions(numerators.values(), den)))


def _natural(value, what, even=False):
    """``value`` if it is an int (a bool or float is not), at least 0 and,
    with ``even``, even; otherwise a ``ValueError`` that names ``what``."""
    if type(value) is not int or value < 0 or (even and value % 2):
        kind = "even integer" if even else "integer"
        raise ValueError(f"{what} must be a non-negative {kind}, got {value!r}")
    return value


def _precision(value):
    """``value`` if ``_natural`` takes it as a number of coefficients and it
    is at least 1; otherwise a ``ValueError``."""
    if type(value) is int and value < 1:
        raise ValueError(f"precision must be positive, got {value}")
    return _natural(value, "precision")


#: digits that int <-> str conversion always takes: the least digit limit an
#: interpreter accepts (``sys.int_info.str_digits_check_threshold``) is 640
_DIGIT_BLOCK = 512


def _decimal_text(value):
    """``str(value)`` of an int or Fraction, also where the interpreter refuses
    an int of more than ``sys.get_int_max_str_digits()`` digits.  Such an int
    is halved at powers of two down to 1024-bit parts, which ``decimal``
    rejoins exactly: its multiply, unlike int division, is subquadratic."""
    if value.denominator != 1:
        return f"{_decimal_text(value.numerator)}/{_decimal_text(value.denominator)}"
    n = value.numerator
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    powers = {}

    def convert(n, bits):
        if bits <= 1024:
            return decimal.Decimal(n)
        k = 1 << (bits - 1).bit_length() - 1
        if k not in powers:
            powers[k] = decimal.Decimal(2) ** k
        return convert(n >> k, bits - k) * powers[k] + convert(n & ((1 << k) - 1), k)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        text = str(convert(abs(n), abs(n).bit_length()))
    return "-" + text if n < 0 else text


def _decimal_int(text):
    """``int(text)`` of a ``[sign]digits`` string, also where the interpreter
    refuses more than ``sys.get_int_max_str_digits()`` digits: those are halved
    at powers of ten down to ``_DIGIT_BLOCK`` digits and rejoined by int
    multiplies, subquadratic in the length.  Long text of anything else
    raises the ``ValueError`` of ``int``."""
    try:
        return int(text)
    except ValueError:
        sign = text[:1] if text[:1] in ("+", "-") else ""
        digits = text[len(sign):]
        if not (digits.isascii() and digits.isdigit()):
            raise
    powers = {}

    def convert(start, stop):
        if stop - start <= _DIGIT_BLOCK:
            return int(digits[start:stop])
        k = 1 << (stop - start - 1).bit_length() - 1
        if k not in powers:
            powers[k] = 10 ** k
        return convert(start, stop - k) * powers[k] + convert(stop - k, stop)

    n = convert(0, len(digits))
    return -n if sign == "-" else n


def _short_product(x, y, bits):
    """An int congruent to x*y modulo 2^bits (``y is x`` squares x): with
    x = x0 + 2^h x1 split at h = ceil(7 bits/10) >= bits/2 bits, it is
    x0 y0 + 2^h ((x0 mod 2^(bits-h)) y1 + x1 (y0 mod 2^(bits-h))), the terms
    left out being multiples of 2^bits."""
    low = -(-7 * bits // 10)
    cut = (1 << (bits - low)) - 1
    x0, x1 = x & ((1 << low) - 1), x >> low
    if y is x:
        return x0 * x0 + ((x0 & cut) * x1 << low + 1)
    y0, y1 = y & ((1 << low) - 1), y >> low
    return x0 * y0 + ((x0 & cut) * y1 + x1 * (y0 & cut) << low)


def _kronecker_product(a, b):
    """Integer coefficients of a*b below q^len(a), for len(a) == len(b), by
    Kronecker substitution at the two points x = +-2^s (Harvey's KS2).  With
    A(x) = E(x^2) + x O(x^2), the even- and the odd-indexed coefficients E and O
    are packed apart at y = 2^w, w = 2s, in byte-aligned slots of w bits, where
    every product coefficient c has |c| < 2^(w-1); A(+-2^s) = E(2^w) +- 2^s O(2^w).
    Two products of half the bit length, P+- = A(+-2^s) B(+-2^s), give the even
    coefficients of a*b in the slots of (P+ + P-)/2 and the odd ones in those of
    (P+ - P-)/2^(s+1).  Slots hold value + 2^(w-1), so that they pack and read
    back without borrows.  When ``b is a`` each evaluation is squared.  Both are
    short products (``_short_product``): only their bits below the n = len(a)
    wanted slots, (n+1)s + 1 of them, are formed."""
    n = len(a)
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length() + n.bit_length()
    width = bits // 8 + 1
    s, half = 4 * width, 1 << (8 * width - 1)
    even_bias = int.from_bytes((bytes(width - 1) + b"\x80") * ((n + 1) // 2), "little")
    odd_bias = even_bias >> 8 * width if n & 1 else even_bias  # one slot fewer for odd n

    def pack(nums, bias):
        return int.from_bytes(b"".join([(x + half).to_bytes(width, "little") for x in nums]), "little") - bias

    def evaluations(nums):
        even, odd = pack(nums[::2], even_bias), pack(nums[1::2], odd_bias) << s
        return even + odd, even - odd

    ap, am = evaluations(a)
    bp, bm = (ap, am) if b is a else evaluations(b)
    top = s * (n + 1) + 1
    plus, minus = _short_product(ap, bp, top), _short_product(am, bm, top)
    out = [0] * n
    for i, packed, bias in ((0, (plus + minus) >> 1, even_bias), (1, (plus - minus) >> s + 1, odd_bias)):
        size = (bias.bit_length() + 7) // 8  # width bytes per wanted slot: the bias's top byte is 0x80
        slots = ((packed + bias) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        out[i::2] = [int.from_bytes(slots[j:j + width], "little") - half for j in range(0, size, width)]
    return out


class QSeries:
    """A power series in q truncated to a fixed number of coefficients, kept
    as integer numerators over one positive denominator in lowest terms."""

    __slots__ = ("numerators", "denominator", "_floats", "_big", "_fractions", "_values")

    def __init__(self, coeffs):
        self._set(*_over_lcm((c.numerator, c.denominator) for c in map(_exact, coeffs)))

    @classmethod
    def _from_ints(cls, nums, den=1):
        series = cls.__new__(cls)
        series._set(nums, den)
        return series

    def _set(self, nums, den):
        """Store sum(nums[n] q^n) / den in lowest terms."""
        if not nums:
            raise ValueError("a q-series needs at least one coefficient")
        nums, self.denominator = _lowest_terms(nums, den)
        self.numerators = tuple(nums)
        self._floats = self._fractions = self._values = None

    def _float_coeffs(self):
        """The coefficients as floats, and their largest magnitude as ``_big``, on the first call only."""
        if self._floats is None:
            den = self.denominator
            try:
                # int / int is correctly rounded, exactly like float(Fraction)
                self._floats = tuple(n / den for n in self.numerators)
            except OverflowError:
                raise ValueError("a coefficient is outside the float64 range |x| < 2^1024") from None
            self._big = max(map(abs, self._floats))
        return self._floats

    @classmethod
    def zero(cls, precision=DEFAULT_PRECISION):
        return cls._from_ints([0] * _precision(precision))

    @classmethod
    def one(cls, precision=DEFAULT_PRECISION):
        return cls._from_ints([1] + [0] * (_precision(precision) - 1))

    @property
    def coeffs(self):
        """The coefficients as reduced ``Fraction``s, built on the first call
        only: the series, the tuple and each ``Fraction`` never change."""
        if self._fractions is None:
            self._fractions = tuple(_fractions(self.numerators, self.denominator))
        return self._fractions

    @property
    def precision(self):
        return len(self.numerators)

    @property
    def is_zero(self):
        return not any(self.numerators)

    def coefficient(self, n):
        """Coefficient of q^n (n must lie below the precision)."""
        return _fractions((self.numerators[_natural(n, "coefficient index")],), self.denominator)[0]

    def valuation(self):
        """Index of the first nonzero coefficient, or the precision if zero."""
        for n, c in enumerate(self.numerators):
            if c:
                return n
        return self.precision

    def truncate(self, precision):
        """Drop coefficients beyond ``precision`` (never extends)."""
        if _precision(precision) >= self.precision:
            return self
        return QSeries._from_ints(self.numerators[:precision], self.denominator)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = _exact(other)
            other = QSeries._from_ints([other.numerator] + [0] * (self.precision - 1), other.denominator)
        return _weighted_sum([(1, self), (1, other)], min(self.precision, other.precision))

    __radd__ = __add__

    def __neg__(self):
        return QSeries._from_ints([-n for n in self.numerators], self.denominator)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QSeries) else -_exact(other))

    def __rsub__(self, other):
        return (-self) + _exact(other)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = min(self.precision, other.precision)
            a, b = self.numerators[:n], other.numerators[:n]
            if not any(a[1:]):
                a, b = b, a
            # a constant operand b (nothing past q^0 below q^n) only scales the other;
            # a square hands over one operand, which is then packed once
            nums = _kronecker_product(a, a if other is self else b) if any(b[1:]) else [b[0] * x for x in a]
            return QSeries._from_ints(nums, self.denominator * other.denominator)
        num, den = _exact(other).numerator, other.denominator
        return QSeries._from_ints([num * n for n in self.numerators], den * self.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        return _power(self, exponent, QSeries.one(self.precision))

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    # -- calculus and evaluation -------------------------------------------

    def derive(self):
        """Normalized derivative D = q d/dq; coefficient n*a_n at q^n."""
        return QSeries._from_ints([k * n for k, n in enumerate(self.numerators)], self.denominator)

    def evaluate(self, tau):
        """Evaluate at tau in the upper half-plane (see ``_evaluations``)."""
        return _evaluations([self], tau)[0]

    # -- presentation --------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        shown = format_series(self.truncate(min(4, self.precision)))
        more = ", ..." if self.precision > 4 else ""
        return f"QSeries({shown}{more}; precision={self.precision})"


def _signed_sum(terms):
    """Join ``(value, body)`` pairs, each body showing ``|value|``, as
    ``a + b - c``: the first sign is glued to its body, the others spaced;
    ``"0"`` when there are none."""
    pieces = []
    for value, body in terms:
        if pieces:
            pieces.append(f"- {body}" if value < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if value < 0 else body)
    return " ".join(pieces) or "0"


def format_series(series):
    """Human-readable q-expansion, e.g. ``1 + 240q + 2160q^2``."""
    terms = []
    mags = _fractions(map(abs, series.numerators), series.denominator)
    for n, (num, mag) in enumerate(zip(series.numerators, mags)):
        if not num:
            continue
        text = _decimal_text(mag)
        if n == 0:
            body = text
        else:
            q = "q" if n == 1 else f"q^{n}"
            if mag == 1:
                body = q
            elif mag.denominator == 1:
                body = f"{text}{q}"
            else:
                body = f"{text}*{q}"
        terms.append((num, body))
    return _signed_sum(terms)
