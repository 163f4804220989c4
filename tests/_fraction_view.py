"""The check that ``qseries._fractions`` builds the ``Fraction``s the
constructor builds, and a fixed set of cases for it.

``assert_same_fractions(nums, den)`` compares each entry of
``_fractions(nums, den)`` with ``Fraction(n, den)``: ``==``, numerator,
denominator, ``hash``, exact type, a ``pickle`` round trip and one
arithmetic result.  ``fixed_cases()`` covers den = 1, primes, highly
composite values and a 2000-bit one, with zero, unit, multiple and up to
2000-bit numerators.

The check needs neither pytest nor Hypothesis.  Run as a script, it checks
every fixed case and prints how many entries it compared, so that
interpreters without the test dependencies run it too::

    PYTHONPATH=src python tests/_fraction_view.py
"""

import pickle
import random
from fractions import Fraction

from qmforms.qseries import _fractions

#: 1, primes, highly composite values and a 2000-bit denominator
DENOMINATORS = (1, 2, 3, 691, 2 ** 61 - 1, 12, 720, 5040, 720720, 2 ** 64, 2 ** 10 * 3 ** 6 * 5 ** 3 * 7 ** 2 * 11 * 13,
                3 ** 1262)


def assert_same_fractions(nums, den):
    """Each ``_fractions(nums, den)`` entry is ``Fraction(n, den)`` in every observable way."""
    got = _fractions(nums, den)
    assert type(got) is list and len(got) == len(nums)
    for n, f in zip(nums, got):
        want = Fraction(n, den)
        pair = (want.numerator, want.denominator)
        assert type(f) is Fraction and f == want and (f.numerator, f.denominator) == pair
        assert hash(f) == hash(want)
        back = pickle.loads(pickle.dumps(f))
        assert type(back) is Fraction and (back.numerator, back.denominator) == pair
        result, expected = f * 7 - Fraction(5, 6), want * 7 - Fraction(5, 6)
        assert (result.numerator, result.denominator) == (expected.numerator, expected.denominator)
    return len(got)


def fixed_cases():
    """``(nums, den)`` pairs: per denominator, zero, +-1, +-den and a multiple
    of it, den - 1, and random numerators of 8, 64, 250 and 2000 bits."""
    rng = random.Random(1)
    for den in DENOMINATORS:
        nums = [0, 1, -1, den, -den, 6 * den, den - 1, -den * rng.getrandbits(2000)]
        nums += [rng.choice((1, -1)) * rng.getrandbits(bits) for bits in (8, 64, 250, 2000)]
        yield nums, den


if __name__ == "__main__":
    print(sum(assert_same_fractions(nums, den) for nums, den in fixed_cases()), "entries agree")
