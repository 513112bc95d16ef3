"""The LP-only volume recursion, the reference of the engine's tests.

It builds each chamber's path upward by the former rule of
``chambers.last_crossing``: a candidate known to be realizable first, then
the first one that the realizability LP accepts, in ``light_max`` order.  No
point and no segment is involved, so it shares no decision with the engine.
"""

import wpvol.chambers as chambers
from wpvol.poly import angle_ring
from wpvol.volumes import _wc_integral, mirzakhani_volume


def former_last_crossing(dst, known):
    """(above, S) for the chamber ``dst`` below the main chamber: the first
    maximal light set S, in ``light_max`` order, whose chamber above is in
    ``known`` or the realizability memo, or else the first whose chamber
    above the LP finds realizable."""
    unknown = []
    for S in dst.light_max:
        above = dst._above(chambers._mask(S))
        if above in known or chambers._realize_cache.get(above) is not None:
            return above, frozenset(S)
        unknown.append((above, frozenset(S)))
    for above, S in unknown:
        if above.is_realizable():
            return above, S
    raise AssertionError(f"no realizable uncrossing of {dst}")


def former_volume(c, polys, crossings):
    """The volume polynomial of the realizable chamber ``c`` by the LP-only
    recursion, memoized in ``polys`` per chamber; each crossing is integrated
    once per exact key (C/S, S), kept in ``crossings``, from a quotient
    volume of the reference itself."""
    got = polys.get(c)
    if got is None:
        if not c.light_max:
            got = mirzakhani_volume(c.space.g, c.space.n).poly
        else:
            above, S = former_last_crossing(c, polys)
            key = (above.quotient(S), S)
            wc = crossings.get(key)
            if wc is None:
                vq = former_volume(key[0], polys, crossings)
                comp = sorted(set(c.space.labels) - S)
                wc = crossings[key] = _wc_integral(vq, sorted(S), comp, angle_ring(c.space.n))
            got = former_volume(above, polys, crossings) + wc
        polys[c] = got
    return got
