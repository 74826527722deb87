"""Exact computation with translational tilings of Z^d.

Verification of (joint) tiling equations, exact-cover search for periodic
joint co-tiles, the chain decomposition of co-tile functions with its dilation
modulus, independence and span-uniqueness analysis of tile tuples, periodic
lifting through block graphs, tilings of Z x (Z/pZ), and the deterministic
companion-tile construction.  Everything runs in exact integer and rational
arithmetic.
"""

from .errors import TilekitError, InputContractError, InternalError
from .lattice import (
    INFINITE,
    Lattice,
    PeriodicSet,
    QuotientGroup,
    enumerate_points,
    enumerate_sublattices,
    hnf,
    stabilizer,
)
from .tiles import (
    PeriodicRationalFunction,
    Tile,
    TileTuple,
    WeightedTile,
    convolve,
    difference_set,
    dilate,
    indicator,
    normalize,
)
from .analysis import (
    IndependenceResult,
    RationalSubspace,
    SpanClassification,
    StarResult,
    avoid_subspaces,
    has_property_star,
    is_independent_tuple,
    span_classes,
    vw_dimension,
)
from .verify import JointReport, TilingReport, is_joint_cotile, is_level_tiling, is_tiling, mean
from .solve import (
    AllDPeriodic,
    SearchProblem,
    ZTilingResult,
    brute_force_quotient,
    common_stabilizer,
    independent_cotile_index_bound,
    lift_to_full_period,
    piecewise_to_periodic,
    search_periodic_cotile,
    search_Z_cotile,
    solve_quotient,
)
from .decompose import (
    DecompositionReport,
    DecompositionTree,
    bounded_poly_is_constant_check,
    build_decomposition,
    compute_q,
    dilation_check,
    discrete_derivative,
    is_polynomial_map,
    primorial,
    psi_by_span,
    verify_decomposition,
)
from .torsion import (
    CyclicFunction,
    MixedPeriodicSet,
    MixedTile,
    classify,
    cotile_conclusion,
    ring_inverse,
)
from .construct import (
    AffineSubspace,
    PeriodicityCertificate,
    brother_tiles,
    equiv_condition,
    forcing_assignment,
    translate_by_lattice,
)

__version__ = "0.1.0"
