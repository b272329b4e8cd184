"""Finite-group quantum reference frame calculus.

Groups as Cayley tables, unitary representations, covariant POVMs and their
classification, the relativization channel with its predual and conditioned
variants, operational equivalence quotients, localized frame-change maps, and
measurement reproducibility checkers.
"""

from .groups import (
    CosetSpace,
    FiniteGroup,
    GroupError,
    Subgroup,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from .operators import (
    HermitianBasis,
    contract_factor,
    embed_factors,
    is_density,
    is_effect,
    is_positive,
    kron,
    op_norm,
    partial_trace,
    permute_factors,
    worst_case,
)
from .quantum import (
    CovarianceError,
    Frame,
    POVM,
    ResolutionOfIdentityError,
    UnitaryRep,
    UnsupportedFrameError,
    born,
    canonical_frame,
    canonical_pvm,
    classify_frame,
    coherent_state_povm,
    covariance_deviation,
    left_regular_rep,
    left_right_rep,
    localizing_state,
    trivial_rep,
    uniform_povm,
)
from .opequiv import (
    EffectContext,
    ProductContext,
    fixed_subspace,
    framed_subspace,
    g_twirl,
    g_twirl_predual,
    intersect,
    invariant_subspace,
)
from .relativize import (
    HomogeneousYenMap,
    PreconditionError,
    YenMap,
    product_relative_state,
    relational_span_report,
    relative_orientation,
    restrict,
)
from .framechange import (
    FramedRelativeState,
    MultiFrameScenario,
    coherent_frame_change_unitary,
    compose_check,
    frame_change,
    operational_agreement,
    triangular_reconstruction,
)
from .measurement import (
    MeasurementScheme,
    canonical_scheme,
    check_prc,
    check_rrc,
    rrc_relative_orientation,
)

__version__ = "0.1.0"
