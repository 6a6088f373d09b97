"""Shared test helpers."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from clentropy import Interval


def _decimal_interval(text: str) -> Interval:
    """The reals a rounded decimal stands for: [x - unit/2, x + unit/2], the
    unit one in the last digit of ``text``, with float endpoints rounded
    outward.  A reference decimal is checked by ``overlaps`` against this,
    so a correct enclosure narrower than the decimal's rounding passes."""
    x = Decimal(text)
    half = Fraction(10) ** x.as_tuple().exponent / 2
    return Interval(math.nextafter(float(Fraction(x) - half), -math.inf),
                    math.nextafter(float(Fraction(x) + half), math.inf))


@pytest.fixture(scope="session")
def decimal_interval():
    return _decimal_interval
