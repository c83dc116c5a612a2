"""Subalgebras of matrix algebras: symbolic dimension counting, numerical
trivial-intersection experiments, and staged construction of irreducible
perturbed free-product representations."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    SubalgebraClass,
    center_restriction,
    class_leq,
    compatible_embeddings,
    compose_multiplicities,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    enumerate_unital_embeddings,
    gcd_embedding_bound,
    relative_commutant,
)
from .dimensions import (
    DimReport,
    HypothesisAudit,
    audit_density_hypotheses,
    box_max,
    class_dim,
    classify_pair,
    d_value,
    dim_report,
    lagrange_min,
    orbit_dims,
    stab_dim,
)
from .errors import (
    ConfigError,
    DomainError,
    NumericalInstabilityError,
    SearchExhaustedError,
    ShapeMismatchError,
)
from .freeprod import (
    FreeElement,
    Letter,
    RcpBalance,
    RcpReport,
    RepPair,
    Stage,
    StagedBuild,
    dpi_probe,
    evaluate,
    irreducibility_check,
    joint_commutant_dim,
    lipschitz_bound,
    pad_multiplicities,
    rcp_balance,
    rcp_check,
    rcp_check_pair,
    staged_build,
)
from .numeric import (
    ConcreteRealization,
    DensityStats,
    commutant_basis,
    conjugate,
    density_experiment,
    haar_unitary,
    intersect,
    realize,
    realize_class,
)

# Importing the names above also binds the submodules; they stay reachable as
# attributes but are not part of the star-import surface.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
