"""Numerical library for flatness certificates over function algebras.

Subpackages cover suffix-sum machinery for square-summable sequences,
pointwise witness certificates for sampled linear relations, polar and
two-generator ideal constructions, decidable ultrafilter-limit fragments,
weight factorizations over shell-layered spaces, a boundary-grid Hardy
core with outer-function synthesis and subspace projections, and the
disk/half-plane transfer of factorizations.
"""

from .bezout_ops import (
    PrincipalGenerator,
    SampledFunction,
    StrictnessWitness,
    polar_parts,
    principal_generator,
    sampled_function,
    strictness_witness,
)
from .errors import (
    DegenerateTail,
    FlatwitnessError,
    GridTooCoarse,
    InvalidInput,
    InvalidWeight,
    NotARelation,
    NotInner,
    ScaleOverflow,
)
from .halfplane_transfer import (
    HalfPlaneSamples,
    TransferResult,
    disk_to_halfplane_h2,
    halfplane_to_disk_h2,
    mobius,
    mobius_inv,
    sample_halfplane,
    transfer_factorization,
)
from .hardy_engine import (
    ArcLayout,
    GridFunction,
    HardyFactorization,
    OuterFunction,
    analytic_project,
    arc_energies,
    arc_layout,
    build_circle_weight,
    check_log_integrable,
    constant_function,
    coordinate_function,
    from_taylor,
    grid_thetas,
    hardy_factor,
    inner_check,
    neg_mode_leakage,
    outer_from_modulus,
    project_onto_bH2,
    radial_decay_check,
)
from .layered_factor import (
    LayeredFactorization,
    LayeredSpace,
    Shell,
    build_weight,
    factor,
    layered_space,
    preset_circle,
    preset_l2,
    preset_lebesgue_r,
    shell_energies,
    verify_star_bound,
)
from .pointwise_witness import (
    OrthonormalFrame,
    PointwiseRelation,
    WitnessCertificate,
    WitnessReport,
    orthocomplement_frame,
    pointwise_relation,
    synthesize_witness,
    verify_witness,
)
from .seq_core import (
    TailProfile,
    geometric_profile,
    olympiad_weighted_sum,
    profile_from_energies,
    tail_profile,
    verify_olympiad_bound,
)
from .ultralimits import (
    BoundedSequence,
    EventualLimit,
    Membership,
    bounded_sequence,
    eventual_limit,
    ideal_membership_nonprincipal,
    principal_limit,
)

__version__ = "0.1.0"
