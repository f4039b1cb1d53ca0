"""Quasi-isometry rigidity toolkit for atomic right-angled Artin groups."""

__version__ = "0.1.0"

from .graphs import (
    DefiningGraph,
    GraphError,
    InvariantError,
    AtomicityReport,
    check_atomic,
    girth,
    orthogonal_complement,
    cut_vertices,
    isomorphism,
    automorphism_group_order,
    double_along_closed_star,
    glue_k_copies_along_star,
    pentagon,
    dodecahedron,
    dodecahedron_double,
)
from .words import (
    GroupElement,
    CosetKey,
    normal_form,
    identity,
    generator,
    multiply,
    invert,
    in_special_subgroup,
    coset_key,
)

from .coarse import (
    classify_turn,
    coarse_length,
    coarse_distance,
    same_parallel_set,
    classify_parallel_intersection,
    quarter_plane_case,
)
from .flatspace import FlatBall, build_ball, parallel_set_slice
