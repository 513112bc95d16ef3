"""Numeric evaluation, quarantined output layer.

The core of the package never touches floating point: pi stays a formal
variable and every identity is decided by exact polynomial equality.  This
module is the one place where a univariate-in-pi polynomial is turned into a
decimal number, at an explicit requested precision (default 50 digits).  It
takes the polynomial as a Poly (``evaluate_pi_poly``) or, as point queries
hand it over, as int numerators by pi power over one denominator
(``evaluate_pi_numerators``); both run the same loop.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from decimal import Context, Decimal, localcontext

from .poly import Poly
from .rationals import check_int

DEFAULT_DIGITS = 50
_GUARD = 12

_pi_cache: dict[int, Decimal] = {}
# Per number of digits: pi^0, pi^1, ... at the working precision of digits +
# guard as far as evaluations have asked, each the power of pi_decimal taken
# at that precision, the working context and the plus of the context of
# digits, so an evaluation switches no thread context.
_evaluations: dict[int, tuple[list[Decimal], Context, Callable]] = {}


def pi_decimal(digits: int = DEFAULT_DIGITS) -> Decimal:
    """pi correctly rounded to ``digits`` significant decimal digits.

    Machin's formula pi = 16*atan(1/5) - 4*atan(1/239) with guard digits.
    """
    if check_int(digits, "precision") < 1:
        raise ValueError("precision must be at least 1 digit")
    cached = _pi_cache.get(digits)
    if cached is not None:
        return cached
    prec = digits + _GUARD
    with localcontext() as ctx:
        ctx.prec = prec
        eps = Decimal(1).scaleb(-(prec + 2))

        def atan_inv(x: int) -> Decimal:
            # atan(1/x) for integer x > 1, alternating Taylor series
            x2 = x * x
            power = Decimal(1) / x  # 1/x^(2k+1)
            total = power
            k = 1
            while power > eps:
                power /= x2
                term = power / (2 * k + 1)
                total += term if k % 2 == 0 else -term
                k += 1
            return total

        value = 16 * atan_inv(5) - 4 * atan_inv(239)
    with localcontext() as ctx:
        ctx.prec = digits
        value = +value
    _pi_cache[digits] = value
    return value


def evaluate_pi_numerators(nums: Mapping[int, int], den: int, digits: int = DEFAULT_DIGITS) -> Decimal:
    """sum_k nums[k] / den * pi^k for int numerators and den > 0, to ``digits``
    significant digits.

    Each nums[k] / den is one correctly rounded Decimal division of exact
    ints, so the numerators need not be reduced: any fraction of one value
    gives the same digits.  This is the one numeric evaluation loop.  It
    sums at ``digits`` + guard digits and rounds to ``digits`` through the
    methods of contexts kept per ``digits`` (``_evaluations``), and reads
    pi^k from the powers kept with them, each taken once.
    """
    if check_int(digits, "precision") < 1:
        raise ValueError("precision must be at least 1 digit")
    kept = _evaluations.get(digits)
    if kept is None:  # a fresh Context takes the default settings, as a localcontext of them does
        kept = _evaluations[digits] = ([], Context(prec=digits + _GUARD), Context(prec=digits).plus)
    powers, work, plus = kept
    top = max(nums, default=-1)
    if len(powers) <= top:
        pi_val = pi_decimal(work.prec)
        powers.extend(work.power(pi_val, k) for k in range(len(powers), top + 1))
    add, multiply, divide = work.add, work.multiply, work.divide
    total = Decimal(0)
    d = Decimal(den)
    for k, c in sorted(nums.items()):
        total = add(total, multiply(divide(Decimal(c), d), powers[k]))
    return plus(total)


def evaluate_pi_poly(p: Poly, digits: int = DEFAULT_DIGITS) -> Decimal:
    """Evaluate a univariate-in-pi Poly numerically (``evaluate_pi_numerators``
    of its numerators over its denominator)."""
    if p.ring.nvars != 1:
        raise ValueError("expected a univariate polynomial in pi")
    return evaluate_pi_numerators({k: c for (k,), c in p.nums.items()}, p.den, digits)
