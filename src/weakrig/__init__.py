"""Weak rigidity of mixed distance/angle frameworks in 2D and 3D.

Core pieces: the weak rigidity matrix and its rank-based rigidity tests,
the gradient formation controller for three agents, and Henneberg-style
growth of minimally weakly rigid frameworks.
"""

from .core import (
    Framework,
    Graph,
    build_graph,
    induced_distance_closure,
)
from .errors import (
    BadAnchor,
    CollinearPlacement,
    CollocatedPoints,
    DegenerateAngleTriple,
    DegenerateConfiguration,
    DuplicateConstraint,
    EdgeNotFound,
    EmptyEdgeSet,
    IndexOutOfRange,
    ParseError,
    PlacementExhausted,
    SeedNotRigid,
    SelfLoop,
    TargetMismatch,
    WeakRigError,
    WriteError,
    WrongTopology,
)
from .formation import (
    DetZ,
    EquilibriumReport,
    ErrorVector,
    SimulationConfig,
    SimulationTrace,
    TargetSpec,
    align_targets,
    canonical_targets,
    canonical_three_agent_graph,
    classify_equilibrium,
    control_law,
    det_z,
    e_matrix_three_agent,
    error_vector,
    flow_jacobian,
    is_three_agent_topology,
    realize_canonical_targets,
    simulate,
)
from .henneberg import (
    ExtensionStep,
    GrowthResult,
    apply_extension,
    grow_random,
    weakly_rigid_0_extension,
    weakly_rigid_1_extension,
)
from .rigidity import (
    MinimalityResult,
    RigidityReport,
    WeakRigidityMatrix,
    classify_infinitesimal_weak_rigidity,
    classify_weak_rigidity_3d,
    cosine_edge_partials,
    finite_difference_weak_rigidity_matrix,
    is_minimally_weakly_rigid,
    numerical_rank,
    trivial_motion_basis,
    weak_rigidity_function,
    weak_rigidity_matrix,
)

__version__ = "0.1.0"
