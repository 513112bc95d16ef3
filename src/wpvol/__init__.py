"""Exact Weil-Petersson volumes of conical hyperbolic surfaces.

Piecewise-polynomial volumes over the Hassett space of stability conditions:
chamber combinatorics, exact wall-crossing integrals, closed-form families,
and 2 pi limit and dilaton-type derivative identities, all in exact rational
arithmetic with pi as a formal variable.
"""

from .chambers import (
    Chamber,
    CrossingPath,
    StabilitySpace,
    WeightVector,
    chamber_from_json_dict,
    classify,
    crossing_path,
    enumerate_chambers,
    light_chamber,
    main_chamber,
    minimal_chamber_0,
    witness,
)
from .errors import (
    BoundExceededError,
    DimensionMismatchError,
    NoFlatHullError,
    NotComparableError,
    NotIncidentError,
    NotRealizableError,
    OnWallError,
    RingMismatchError,
    UnstableError,
    WpvolError,
)
from .intersection import (
    default_cache,
    kappa_psi_intersection,
    psi_intersection,
)
from .numeric import evaluate_pi_poly, pi_decimal
from .poly import PI_RING, Poly, PolyRing, angle_ring, phi_form, poly_from_json_dict
from .rationals import format_rat, parse_weights, rat
from .volumes import (
    VolumeResult,
    WallCrossingPoly,
    chamber_volume,
    cp1n_chamber,
    cp1n_volume,
    dilaton_check,
    eval_at_2pi,
    general_dilaton_check,
    incident_zero_check,
    losev_manin_chamber,
    losev_manin_volume,
    minimal_chamber_volume_closed,
    mirzakhani_volume,
    piecewise_volume,
    wall_crossing_poly,
)

__version__ = "0.1.0"
