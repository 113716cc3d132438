"""Certificates of (non-)semidiscreteness for semigroups of hyperbolic maps.

The package decides, where its criteria apply, whether a finite set of
hyperbolic Mobius transformations generates a semidiscrete semigroup, and
emits machine-checkable certificates either way: an elliptic witness word,
or a verified union of boundary intervals mapped strictly inside itself.
"""

from .boundary_arcs import (
    ArcUnion,
    BoundaryArc,
    can_partition_rank_one,
    complement,
    contains,
    schottky_margin,
    verify_schottky,
)
from .criteria_engine import (
    Certificate,
    HRegion,
    Inconclusive,
    NotSemidiscrete,
    RankOneSchottky,
    SemidiscreteInverseFree,
    Thresholds,
    certify,
    crossing_limit_interval,
    elliptic_witness_disjoint,
    h_function,
    pair_trace_identity_check,
    triple_crossing_test,
    two_gen_disjoint_test,
    uniform_hyperbolicity,
)
from .errors import CertifyError
from .interval_builder import (
    GlobalIntervalSystem,
    SymmetricIntervalPair,
    assemble_global,
    build_crossing_pair_intervals,
    build_disjoint_pair_intervals,
    build_shared_alpha_intervals,
)
from .moebius_core import (
    BoundaryPoint,
    Classification,
    Geodesic,
    MoebiusMap,
    apply_boundary,
    apply_interior,
    axis,
    cayley_to_disc,
    classify,
    compose,
    conjugate,
    from_axis_and_length,
    hyperbolic_distance,
    inverse,
    matrix_entries,
    normalize,
)
from .pair_geometry import (
    Family,
    PairGeometry,
    common_perpendicular,
    configuration,
    cross_ratio,
    inverse_flip_identity_check,
)
from .search_oracle import (
    ChaosSamples,
    EnumerationReport,
    Word,
    chaos_game,
    enumerate_words,
    find_elliptic,
    inverse_free_probe,
)

__version__ = "0.1.0"
