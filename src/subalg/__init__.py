"""Subalgebras of matrix algebras: symbolic dimension counting, numerical
trivial-intersection experiments, and staged construction of irreducible
perturbed free-product representations."""

__version__ = "0.1.0"

from .algebra import (
    BlockStructure,
    EmbeddedAlgebra,
    MultiplicityMatrix,
    SubalgebraClass,
    compatible_embeddings,
    compose_multiplicities,
    enumerate_embedded_algebras,
    enumerate_subalgebra_classes,
    enumerate_unital_embeddings,
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
    joint_commutant_dim,
    lipschitz_bound,
    rcp_balance,
    rcp_check,
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

# The submodules stay reachable as attributes but are not star-exported.
__all__ = [
    "BlockStructure", "ConcreteRealization", "ConfigError", "DensityStats", "DimReport",
    "DomainError", "EmbeddedAlgebra", "FreeElement", "HypothesisAudit", "Letter",
    "MultiplicityMatrix", "NumericalInstabilityError", "RcpBalance", "RcpReport", "RepPair",
    "SearchExhaustedError", "ShapeMismatchError", "Stage", "StagedBuild", "SubalgebraClass",
    "audit_density_hypotheses", "box_max", "class_dim", "classify_pair", "commutant_basis",
    "compatible_embeddings", "compose_multiplicities", "conjugate", "d_value",
    "density_experiment", "dim_report", "dpi_probe", "enumerate_embedded_algebras",
    "enumerate_subalgebra_classes", "enumerate_unital_embeddings", "evaluate", "haar_unitary",
    "intersect", "joint_commutant_dim", "lagrange_min", "lipschitz_bound", "orbit_dims",
    "rcp_balance", "rcp_check", "realize", "realize_class", "relative_commutant", "stab_dim",
    "staged_build",
]
