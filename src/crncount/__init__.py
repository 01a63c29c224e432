"""Equilibrium counting for chemical reaction networks with inflows and outflows.

Workflow: parse a network, census the sign pattern of its symbolically
expanded Jacobian determinant, certify a conserved mass vector, and count
equilibria numerically in a bounded domain by multistart Newton and
degree-preserving homotopy continuation.
"""

from .conservation import MassVector, MassVerdict, check_mass_vector, conserved_mass_vector
from .dsl import ParseError, parse_network, serialize_network
from .jacobian import (
    DominanceCondition,
    SignSummary,
    augmented_mass_action_jacobian,
    build_general_jacobian,
    build_mass_action_rate,
    dominance_conditions,
    sign_census,
    symbolic_jacobian,
)
from .network import (
    Complex,
    FlowAugmentation,
    GeneralMonotone,
    MassAction,
    NetworkError,
    Reaction,
    ReactionNetwork,
    Species,
    reaction_vectors,
    stoichiometric_rank,
    with_general_kinetics,
)
from .numeric import (
    BoxDomain,
    EquilibriumReport,
    HomotopyPath,
    MassDomain,
    NumericSystem,
    PathTrackingError,
    UniqueEquilibriumError,
    boundary_audit,
    box_audit,
    count_equilibria,
    default_domain,
    flow_system,
    make_domain,
    newton_solve,
    numeric_system_from_network,
    search_multistationarity,
    track_homotopy,
)
from .polynomial import (
    DeterminantSizeError,
    Indeterminate,
    Polynomial,
    concentration,
    determinant_expand,
    differentiate,
    evaluate,
    kinetic_partial,
    rate_constant,
    substitute,
)

__version__ = "0.1.0"
