"""Subalgebras of matrix algebras: symbolic dimension counting, numerical
trivial-intersection experiments, and staged construction of irreducible
perturbed free-product representations."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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

# Every public name imported above.  The submodules stay reachable as
# attributes but are not star-exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
