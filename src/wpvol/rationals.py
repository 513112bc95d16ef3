"""Exact rational scalars.

The scalar type of the whole package is ``fractions.Fraction``: arbitrary
precision, always reduced to lowest terms, positive denominator.  This module
adds the string forms used by the CLI and the serialization layer, where
rationals are written "p/q" and never as floats, and the one check of an
integer input (``check_int``): a count, index, label or digit count.
"""

from __future__ import annotations

from fractions import Fraction


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction.

    Anything else raises ValueError: a float or a bool is not a rational
    input, whatever its value.  Exponent notation is rejected too:
    ``Fraction`` would expand "1e999999999" digit by digit.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not an int, a Fraction or a p/q string")
    text = value.strip()
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {value!r}; write rationals as p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def check_int(value, what: str) -> int:
    """``value`` if it is an int, else a one-line ValueError naming ``what``.

    A bool is refused although it is an int subclass (JSON's true parses to
    one), and a float, Fraction or str is never truncated or parsed into an
    int.
    """
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, not {value!r}")
    return value


def format_rat(q: Fraction) -> str:
    """Canonical "num/den" form, denominator always shown and positive."""
    return f"{q.numerator}/{q.denominator}"


def parse_weights(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated weight list such as "1/2,1/2,3/4"."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty weight list")
    return tuple(rat(p) for p in parts)
