"""Machine-speed normalization of measured times.

The CPU a run gets is shared: on a 2-core sandbox the same pure-Python loop
runs up to twice as slow for stretches of several seconds.  A ``SpeedProbe``
runs a fixed loop from a SIGALRM handler every ``interval`` seconds, in the
middle of whatever the process is doing, and records how long it took.  The
loop multiplies two small sparse polynomials the way ``Poly.__mul__`` does
(tuple exponents, Fraction coefficients, one dict), so contention slows it
about as much as it slows wpvol.  A measured span is reported as

    normalized = busy * PROBE_REFERENCE_S * mean(1 / probe) over nearby probes

where ``busy`` is the span minus the probes that ran inside it, and "nearby"
means started within ``interval`` of the span.  That is the span's work in
probe loops, at 1 ms per loop: the time it would take on a machine where the
loop takes 1 ms.  On a 2-core x86 sandbox the loop takes 0.96 ms at best and
about 1.8 ms typically.  A change to wpvol does not change the loop, so it
moves normalized times as it moves raw ones.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PROBE_REFERENCE_S = 0.001

_A = {(i, j, k): Fraction(i + 1, j + 2) for i in range(3) for j in range(3) for k in range(2)}
_B = {(i, j, k): Fraction(j + 3, i + 1) for i in range(2) for j in range(3) for k in range(2)}


def spin() -> dict:
    out: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def normalize(start: float, end: float, busy: float, probe_t, probe_d, interval: float) -> float:
    """``busy`` seconds measured over [start, end], at PROBE_REFERENCE_S per probe loop."""
    lo = bisect_left(probe_t, start - interval)
    hi = bisect_right(probe_t, end + interval)
    if lo == hi:  # no probe near the span: use the closest one
        lo = min(range(max(lo - 1, 0), min(lo + 1, len(probe_t))), key=lambda i: abs(probe_t[i] - start))
        hi = lo + 1
    return busy * PROBE_REFERENCE_S * sum(1.0 / d for d in probe_d[lo:hi]) / (hi - lo)


class SpeedProbe:
    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.t = array("d")  # probe start times, ascending
        self.d = array("d")  # probe durations
        self.total = 0.0  # summed probe durations, to subtract from measured spans

    def sample(self, *_) -> None:
        t0 = perf_counter()
        spin()
        t1 = perf_counter()
        self.t.append(t0)
        self.d.append(t1 - t0)
        self.total += t1 - t0

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def normalizer(self):
        """A function (start, end, busy) -> normalized seconds, for spans of this process."""
        t, d = self.t.tolist(), self.d.tolist()
        return lambda start, end, busy: normalize(start, end, busy, t, d, self.interval)
