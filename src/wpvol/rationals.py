"""Exact rational scalars.

The scalar type of the whole package is ``fractions.Fraction``: arbitrary
precision, always reduced to lowest terms, positive denominator.  This module
only adds the string forms used by the CLI and the serialization layer, where
rationals are written "p/q" and never as floats.
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


def format_rat(q: Fraction) -> str:
    """Canonical "num/den" form, denominator always shown and positive."""
    return f"{q.numerator}/{q.denominator}"


def parse_weights(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated weight list such as "1/2,1/2,3/4"."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty weight list")
    return tuple(rat(p) for p in parts)
