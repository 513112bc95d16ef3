"""Exception hierarchy.

Every domain error raised by this package derives from WpvolError so the CLI
can map them to exit code 1 uniformly.
"""

from __future__ import annotations


class WpvolError(Exception):
    """Base class for all domain errors."""


class RingMismatchError(WpvolError):
    """Operands belong to different polynomial rings."""


class VariableRangeError(WpvolError):
    """A variable index is out of range or refers to the formal pi symbol."""


class OnWallError(WpvolError):
    """A weight vector lies exactly on a wall."""

    def __init__(self, wall: frozenset[int]):
        self.wall = wall
        super().__init__(f"weight vector lies on the wall W_{sorted(wall)}")


class NotIncidentError(WpvolError):
    """The chamber is not incident to and above the requested wall."""


class NotRealizableError(WpvolError):
    """The candidate chamber admits no interior weight vector."""


class NotComparableError(WpvolError):
    """The two chambers are not comparable in the wall-crossing partial order."""


class DimensionMismatchError(WpvolError):
    """Intersection-number index violates the dimension constraint."""


class UnstableError(WpvolError):
    """The requested moduli problem (g, n) is unstable."""


class BoundExceededError(WpvolError):
    """An input past a bound on its cost: a space with more points than
    chambers.ENUMERATION_BOUND allows, or a command line past a bound of
    wpvol.cli."""


class NoFlatHullError(WpvolError):
    """The chamber has no flat hull in the requested coordinate."""
