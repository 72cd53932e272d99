"""noetherlab: exact-arithmetic laboratory for Noetherian graph combinatorics.

Forbidden-pattern detection, the neighborhood-intersection lattice,
constructive open-box colorings, and finite-scale simulation of the
coloring and control posets with their exact compatibility, centeredness
and predensity criteria.
"""

from ._kernels import backend_name
from .coloring import (
    PCondition,
    StageChain,
    chromatic_number,
    extend_coloring,
    greedy_coloring,
    k_colorable_fixed_order,
    separating_box,
    stitch_colorings,
    validate_pcondition,
)
from .coloring_poset import (
    is_separated,
    p_compatible,
    p_leq,
    p_lower_bound,
)
from .control_poset import (
    Location,
    QCondition,
    canonical_location,
    compatible_tail,
    is_at_location,
    liminf_thin,
    predense_check,
    predense_check_reduced,
    predense_reduce,
    q_compatible,
    q_meet,
    ramsey_bound,
    ramsey_compatible_subset,
    two_coloring_forces_clique,
    validate_qcondition,
)
from .geometry import (
    Point,
    TaggedBox,
    box_contains,
    box_from_index,
    box_index,
    box_within,
    boxes_disjoint,
    first_box_containing,
    pt,
    squared_distance,
)
from .graphs import (
    GraphInstance,
    SampleUniverse,
    TwoVarPoly,
    adjacent,
    box_edge_free,
    common_neighborhood,
    curve_difference_graph,
    distance_graph,
    explicit_graph,
    hamming_diagonal,
    hamming_uniform,
    neighborhood,
    vertex_point,
)
from .hamming import (
    EpsilonMatrix,
    EpsilonSequence,
    embed_diagonal_into_distance,
    epsilon_matrix,
    geometric_epsilon_sequence,
    make_diagonal_hamming,
    make_uniform_hamming,
    sigma_bounded_check,
    verify_embedding,
    verify_vitali_homomorphism,
    vitali_map,
)
from .lattice import (
    ClosedFamilyElement,
    good_closure,
    heart,
    is_good,
    longest_descent_chain,
    minimal_subfamily,
)
from .patterns import (
    PatternWitness,
    VariationSpec,
    all_variations,
    find_clique,
    find_variation_prefix,
    homogeneous_guarantee,
    homogeneous_subset,
)

__version__ = "0.1.0"
